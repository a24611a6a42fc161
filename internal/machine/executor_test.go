package machine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/transport"
)

// hopThreads is the hop kernel in miniature: 16 threads on a 4x4 mesh
// under page-striped:4096, thread t native to core t. Each iteration
// publishes a mailbox word and a flag on the thread's own pages, reads a
// run of four words from the mailbox of core (t+8) mod 16 and the flag of
// core (t+1) mod 16, and stores privately in between.
func hopThreads(iters int) []ThreadSpec {
	prog := isa.MustAssemble(`
	loop:
		and  r9, r6, r10
		sll  r9, r9, r11
		add  r9, r9, r2
		sw   r8, 0(r9)
		sw   r8, 64(r3)
		addi r8, r8, 13
		sw   r8, 0(r1)
		lw   r7, 0(r4)
		lw   r7, 4(r4)
		lw   r7, 8(r4)
		lw   r7, 12(r4)
		sw   r8, 8(r1)
		lw   r7, 64(r5)
		addi r6, r6, -1
		bne  r6, r0, loop
		halt
	`)
	const n, page = 16, 4096
	threads := make([]ThreadSpec, n)
	for t := range threads {
		threads[t] = ThreadSpec{Program: prog, Regs: map[int]uint32{
			1:  page * uint32(t),
			2:  page * uint32(n+t),
			3:  page * uint32(2*n+t),
			4:  page * uint32(n+(t+n/2)%n),
			5:  page * uint32(2*n+(t+1)%n),
			6:  uint32(iters),
			8:  uint32(t + 1),
			10: 3,
			11: 2,
		}}
	}
	return threads
}

// racyIncrements is two threads each adding 1 to one word n times with a
// plain load and store, so increments are lost wherever the two
// interleave: the final word is a function of the schedule alone.
func racyIncrements(n int) []ThreadSpec {
	prog := isa.MustAssemble(fmt.Sprintf(`
		addi r2, r0, %d
	loop:
		lw   r1, 64(r0)
		addi r1, r1, 1
		sw   r1, 64(r0)
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`, n))
	return []ThreadSpec{{Program: prog}, {Program: prog}}
}

// TestInProcessRunIsDeterministic: the in-process machine's schedule is a
// function of the program and configuration, so two runs on fresh
// machines agree on everything — counters the goroutine-per-core machine
// left to the Go scheduler (evictions, overcommits, per-core breakdowns,
// the event log) included, as do final registers and memory images.
func TestInProcessRunIsDeterministic(t *testing.T) {
	t.Parallel()
	contention, contended := guestContention()
	hop := Config{
		Mesh:      geom.NewMesh(4, 4),
		Placement: placement.NewPageStriped(4096, 16),
		Scheme:    core.NewHybrid(64),
		LogEvents: true,
	}
	racy := Config{
		Mesh:      geom.NewMesh(2, 1),
		Placement: placement.NewStriped(64, 2),
		Scheme:    core.AlwaysRemote{},
		Quantum:   3,
		LogEvents: true,
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		threads []ThreadSpec
	}{
		{"guest-pool-contention", contention, contended},
		{"hop-hybrid64", hop, hopThreads(sized(40, 10))},
		{"racy-increments", racy, racyIncrements(sized(200, 50))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, firstRes := run(t, tc.cfg, tc.threads)
			second, secondRes := run(t, tc.cfg, tc.threads)
			if !reflect.DeepEqual(firstRes, secondRes) {
				t.Errorf("two runs differ:\n%+v\n%+v", firstRes, secondRes)
			}
			if a, b := first.MemImage(), second.MemImage(); !reflect.DeepEqual(a, b) {
				t.Errorf("memory images differ:\n%v\n%v", a, b)
			}
		})
	}
}

// TestLeaseWriteUpdateZeroAlloc pins a write to a word two cores hold a
// lease on at zero allocations in process: the shard reuses its holder
// lists, the write-updates go into the memory handler's stack buffer, and
// each reaches the holder's resident lease caches without building
// anything.
func TestLeaseWriteUpdateZeroAlloc(t *testing.T) {
	cfg := leaseConfig(core.NewHybrid(64))
	cfg.LogEvents = false
	tr := transport.NewLocal(cfg.Mesh.Cores(), 2)
	p, err := NewPart(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	const addr = 64 // homed at core 1
	for _, holder := range []geom.CoreID{2, 3} {
		lc := core.NewLeaseCache(core.DefaultLeaseEntries, 64)
		lc.Fill(cache.Addr(addr), 0, 0)
		p.nodeOf[holder].adoptLease(&context{thread: int(holder), lease: lc})
	}
	v := uint32(0)
	cycle := func() {
		for _, holder := range []uint32{2, 3} {
			if _, err := tr.Remote(1, transport.MemRequest{Op: transport.OpRead, Addr: addr, From: holder, Lease: 64}); err != nil {
				t.Fatal(err)
			}
		}
		v++
		if _, err := tr.Remote(1, transport.MemRequest{Op: transport.OpWrite, Addr: addr, Arg: v, From: 0}); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("grant twice, then write: %.1f allocs, want 0", n)
	}
	for _, holder := range []geom.CoreID{2, 3} {
		if got, ok := p.nodeOf[holder].leases[0].Lookup(cache.Addr(addr), 0); !ok || got != v {
			t.Errorf("core %d's lease holds (%d, %v), want the last write %d", holder, got, ok, v)
		}
	}
}

// embeddedTransport is the plainest decorator: it embeds the Transport
// interface and overrides nothing.
type embeddedTransport struct{ transport.Transport }

// TestDecoratedLocalRunsContexts: a part over a decorator that embeds the
// Transport interface around a Local must still find the in-process
// endpoint and run its contexts to completion — the executor is chosen
// from what the transport is, not from its concrete type.
func TestDecoratedLocalRunsContexts(t *testing.T) {
	t.Parallel()
	tr := embeddedTransport{transport.NewLocal(4, 2)}
	part, err := NewPart(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	threads := MessagePassingLitmus(64).Threads
	halts := make(chan transport.HaltMsg, len(threads))
	if err := part.Start(threads, func(h transport.HaltMsg) { halts <- h }); err != nil {
		t.Fatal(err)
	}
	defer part.Stop()
	if err := Inject(threads, 4, tr.SendEviction); err != nil {
		t.Fatal(err)
	}
	if _, err := AwaitHalts(len(threads), halts, nil, idleTimer(), 10*time.Second, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorServesWhileAwaitingRemote: threads on both nodes of a 2-node
// cluster issue remote ops to the other node at the same time, so each
// node's executor has cores waiting on replies while the peer's requests
// queue for it. An executor that blocked in the remote call would serve
// none of them: the two nodes would wait on each other until the run timed
// out. The executor polls instead, and every counter ends exact.
func TestExecutorServesWhileAwaitingRemote(t *testing.T) {
	t.Parallel()
	// striped:64 on a 2x2 mesh: word 64c is homed at core c, and node 0
	// owns cores 0 and 1, node 1 cores 2 and 3. Thread t, native to core
	// t, adds to the counter at core (t+2) mod 4, on the other node, and
	// reads the word beside it.
	n := sized(300, 60)
	prog := isa.MustAssemble(fmt.Sprintf(`
		addi r2, r0, %d
		addi r3, r0, 1
	loop:
		faa  r4, 0(r5), r3
		lw   r4, 4(r5)
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`, n))
	threads := make([]ThreadSpec, 4)
	for i := range threads {
		threads[i] = ThreadSpec{Program: prog, Regs: map[int]uint32{5: uint32(64 * ((i + 2) % 4))}}
	}
	lit := Litmus{Name: "cross-node-remote", Threads: threads,
		Check: func(read func(uint32) uint32, _ [][isa.NumRegs]uint32) error {
			for c := uint32(0); c < 4; c++ {
				if got := read(64 * c); got != uint32(n) {
					return fmt.Errorf("counter at core %d is %d, want %d", c, got, n)
				}
			}
			return nil
		}}
	man, join, err := Loopback(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{Scheme: "always-remote", Placement: "striped:64", Quantum: 8, LogEvents: true, Timeout: 20 * time.Second}
	res := runVerified(t, man, join, cfg, lit)
	for _, m := range res.PerCore {
		if got := m.RemoteReads + m.RemoteWrites; got != int64(2*n) {
			t.Errorf("core %d issued %d remote ops, want %d", m.Core, got, 2*n)
		}
	}
}
