// Package serve is the errsink fixture ("serve" segment: deterministic).
package serve

import (
	"errsink/machine"
	"errsink/transport"
)

func bad(tr transport.Transport, p *machine.Part) {
	tr.Flush()             // want `error result of tr\.Flush is discarded`
	_ = tr.SendEviction(1) // want `error result of tr\.SendEviction is discarded`
	p.Start()              // want `error result of p\.Start is discarded`
	go p.CollectChunked()  // want `error result of p\.CollectChunked is discarded`
}

func good(tr transport.Transport, p *machine.Part) error {
	if err := tr.Flush(); err != nil {
		return err
	}
	p.Stop() // no error result: not tracked
	return p.Start()
}

func annotated(tr transport.Transport) {
	_ = tr.Flush() // em2:errsink-ok: fixture proves the annotation
}

func badDriver(co *transport.Coordinator) {
	co.Load()                             // want `error result of co\.Load is discarded`
	_ = co.SubmitJob()                    // want `error result of co\.SubmitJob is discarded`
	co.InjectEviction(1)                  // want `error result of co\.InjectEviction is discarded`
	machine.Inject(co.InjectEviction)     // want `error result of machine\.Inject is discarded`
	co.Shutdown()                         // no error result: not tracked
	_ = machine.Inject(co.InjectEviction) // em2:errsink-ok: fixture proves the annotation on the driver side
}

func goodDriver(co *transport.Coordinator) error {
	if err := co.Load(); err != nil {
		return err
	}
	return machine.Inject(co.InjectEviction)
}

// A cluster that embeds the coordinator keeps its lifecycle calls
// tracked: a promoted method is still the Coordinator's.
func badCluster(c *machine.TCPCluster) {
	c.Load()                         // want `error result of c\.Load is discarded`
	machine.Inject(c.InjectEviction) // want `error result of machine\.Inject is discarded`
}

func badVerdict(lit machine.Litmus, sc *machine.SCChecker) {
	lit.Verify()                // want `error result of lit\.Verify is discarded`
	_ = machine.CheckSC()       // want `error result of machine\.CheckSC is discarded`
	defer machine.CheckSCFrom() // want `error result of machine\.CheckSCFrom is discarded`
	sc.Check()                  // want `error result of sc\.Check is discarded`
}

func goodVerdict(lit machine.Litmus, sc *machine.SCChecker) error {
	if err := machine.CheckSCFrom(); err != nil {
		return err
	}
	if err := sc.Check(); err != nil {
		return err
	}
	return lit.Verify()
}
