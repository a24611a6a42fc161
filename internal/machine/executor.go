package machine

import (
	"repro/internal/transport"
)

// runExecutor steps every core of an in-process part on one goroutine. A
// round visits the cores in id order; each admits its arrivals and runs one
// quantum slice of the context at the head of its run queue. A migration
// or eviction between these cores is a push of the thread's slot onto the
// destination's queue (Part.ship), so given the injected contexts the whole
// schedule — every eviction, every lease write-update — is a function of
// the program and the configuration alone. The executor blocks only when a
// round ran nothing, which leaves every queue empty; contexts sent from
// outside it (transport.Local's queue) wake it.
func (p *Part) runExecutor() {
	defer p.wg.Done()
	var in []transport.Arrival
	wake := p.local.Wake()
	for {
		ran := false
		for _, n := range p.nodes {
			n.admit()
			if len(n.runq) > 0 {
				n.runNext()
				ran = true
			}
		}
		// One flush point per round: in process nothing is buffered, but a
		// decorator's failing Flush must still park the part.
		p.flush()
		if ran {
			select {
			case <-p.done:
				return
			case <-wake:
				in = p.landInjected(in)
			default:
			}
			continue
		}
		select {
		case <-p.done:
			return
		case <-wake:
			in = p.landInjected(in)
		}
	}
}

// landInjected takes the contexts queued on the in-process transport, lands
// each in its thread's slot, and queues it at its destination core. in is
// the reused take buffer.
func (p *Part) landInjected(in []transport.Arrival) []transport.Arrival {
	in = p.local.Take(in[:0])
	for i := range in {
		a := &in[i]
		p.nodeOf[a.Dst].deliver(p.fromWire(a.Dst, a.Ctx), a.Evict)
	}
	return in
}

// deliver queues an arrived context for the core's next turn.
func (n *coreNode) deliver(c *context, evict bool) {
	if evict {
		n.evictQ = append(n.evictQ, c)
	} else {
		n.migQ = append(n.migQ, c)
	}
}

// admit moves the core's queued arrivals into its run queue between
// slices: every native return first — the eviction network is consumed
// unconditionally — then migrations in arrival order up to and including
// the first guest. The migrations behind that guest wait for the core's
// next turn, so a core admits at most one guest per round and evicts at
// most one (the progress rule, DESIGN.md §6).
func (n *coreNode) admit() {
	for _, c := range n.evictQ {
		n.acceptNative(c)
	}
	n.evictQ = n.evictQ[:0]
	k := 0
	for k < len(n.migQ) {
		c := n.migQ[k]
		n.acceptGuest(c)
		k++
		if c.native != n.id {
			break
		}
	}
	n.migQ = n.migQ[:copy(n.migQ, n.migQ[k:])]
}
