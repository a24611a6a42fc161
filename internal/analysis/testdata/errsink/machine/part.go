// Package machine is the errsink fixtures' Part stand-in: lifecycle
// methods returning error, plus Stop (no error) as the negative case.
package machine

import "errsink/transport"

type Part struct{}

func (p *Part) Start() error          { return nil }
func (p *Part) StartServe(int) error  { return nil }
func (p *Part) Stop()                 {}
func (p *Part) CollectChunked() error { return nil }

// TCPCluster is the loaded cluster: the coordinator embedded, so its
// lifecycle calls are promoted.
type TCPCluster struct {
	*transport.Coordinator
}

// Inject is the lifecycle's injection loop: a function, not a method.
func Inject(send func(int) error) error { return send(0) }

// Litmus, CheckSC, CheckSCFrom and SCChecker are the verifier: a run's SC
// and outcome verdicts.
type Litmus struct{}

func (l Litmus) Verify() error { return nil }
func CheckSC() error           { return nil }
func CheckSCFrom() error       { return nil }

type SCChecker struct{}

func (c *SCChecker) Check() error { return nil }
