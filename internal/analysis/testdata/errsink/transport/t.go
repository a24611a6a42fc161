// Package transport is the errsink fixtures' transport stand-in.
package transport

type Transport interface {
	SendMigration(dst int) error
	SendEviction(dst int) error
	Flush() error
}

// Coordinator is the driver-side stand-in: lifecycle calls returning only
// an error, plus Shutdown (no error) as the negative case.
type Coordinator struct{}

func (co *Coordinator) Load() error              { return nil }
func (co *Coordinator) SubmitJob() error         { return nil }
func (co *Coordinator) InjectEviction(int) error { return nil }
func (co *Coordinator) Shutdown()                {}
