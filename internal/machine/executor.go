package machine

import (
	"repro/internal/transport"
)

// runExecutor steps every core of the part on one goroutine, on either
// transport. A round visits the cores in id order and gives each its turn:
// admit its arrivals and run one quantum slice of the context at the head
// of its run queue, or, for a core whose context awaits another node's
// reply, resume that slice once the reply has landed. A migration or
// eviction between these cores is a push of the thread's slot onto the
// destination's queue (Part.ship). Between rounds the executor takes what
// the transport queued — injected contexts, and on a TCP node contexts,
// memory requests and lease updates from the peers. In process, given the injected contexts, the whole schedule —
// every eviction, every lease write-update — is a function of the program
// and the configuration alone.
//
// Between rounds it also serves one command from another goroutine
// (Part.call), so a command waits at most one round; while parked it
// lends the part to such calls outright. The hold rule: arrivals that
// wake it while no job is installed (Part.installed) stay queued, and it
// keeps the part and serves calls until one installs a job, then lands
// them.
//
// Flush writes what the rounds sent to other nodes, one write per peer
// link: when a round ran nothing, before the executor parks, and otherwise
// once every len(p.nodes) rounds, so no frame waits longer than that many
// rounds (DESIGN.md §6). The executor blocks only when a round ran
// nothing, with nothing left buffered; an arrival or a landed reply wakes
// it.
func (p *Part) runExecutor() {
	defer close(p.exited)
	<-p.own // lent back only while parked (Part.call)
	var in []transport.Arrival
	wake := p.tr.Wake()
	age := 0 // rounds since the last Flush
	for {
		ran := false
		for _, n := range p.nodes {
			if n.wait.c != nil {
				ran = n.resume() || ran
				continue
			}
			n.admit()
			if len(n.runq) > 0 {
				n.runNext()
				ran = true
			}
		}
		if age++; !ran || age >= len(p.nodes) {
			p.flush()
			age = 0
		}
		if ran {
			select {
			case <-p.done:
				p.own <- struct{}{}
				return
			case <-wake:
				in = p.land(in)
			case <-p.cmd:
				<-p.ret
			default:
			}
			continue
		}
		p.own <- struct{}{}
		select {
		case <-p.done:
			return
		case <-wake:
		}
		<-p.own
		for !p.installed {
			select {
			case <-p.done:
				p.own <- struct{}{}
				return
			case <-p.cmd:
				<-p.ret
			}
		}
		in = p.land(in)
	}
}

// land takes what the transport queued: each context lands in its
// thread's slot and joins its destination core's queue, each memory
// request is served and answered on its link, and each lease update
// reaches the holder's resident caches. in is the previous take's slice,
// handed back for reuse. It runs only while a job is installed: a peer's
// frame that outran this node's submit waits for the install (the hold
// rule, runExecutor).
func (p *Part) land(in []transport.Arrival) []transport.Arrival {
	in = p.tr.Take(in)
	for i := range in {
		switch a := &in[i]; a.Kind {
		case transport.FrameMigration, transport.FrameEviction:
			p.nodeOf[a.Dst].deliver(p.fromWire(a.Dst, a.Ctx), a.Kind == transport.FrameEviction)
		case transport.FrameMemReq:
			_ = p.tr.Answer(a, p.serveMem(a.Dst, a.Req)) //em2:errsink-ok: the requester's link is dying; its node fails the call
		case transport.FrameLeaseInval:
			p.nodeOf[a.Dst].applyLeaseUpdate(a.Inv)
		}
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
