// Package machine violates every determinism invariant em2lint enforces;
// the CLI test asserts each analyzer reports it.
package machine

import (
	"sync"
	"time"

	"badmod/transport"
)

// Part mimics the real machine.Part lifecycle surface.
type Part struct{ mu sync.Mutex }

// Start is a lifecycle method whose error must not be discarded.
func (p *Part) Start() error { return nil }

// Sum ranges over a map without sorting: detrange.
func Sum(counts map[string]int) int {
	total := 0
	for _, v := range counts {
		total += v
	}
	return total
}

// Stamp reads the wall clock: noclock.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// CheckSC is the verifier whose verdict must not be discarded.
func CheckSC() error { return nil }

// Kick discards three tracked errors: errsink.
func Kick(tr transport.Transport, p *Part) {
	tr.SendEviction(3)
	p.Start()
	CheckSC()
}

// Held flushes the transport while holding a mutex: locksend.
func Held(tr transport.Transport, p *Part) {
	p.mu.Lock()
	_ = tr.Flush() //em2:errsink-ok: this site exists to trip locksend, not errsink
	p.mu.Unlock()
}
