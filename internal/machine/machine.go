// Package machine is a concurrent implementation of the Execution Migration
// Machine: cores execute user programs written in the internal/isa
// instruction set with their architectural context (PC + register file)
// shipped between cores whenever they touch memory homed elsewhere.
//
// The execution engine is written against the transport abstraction in
// internal/transport, so the same core code runs in two shapes:
//
//   - In one process (Machine, transport.Local): one executor goroutine
//     steps every core round-robin, a quantum slice per core per round, and
//     the migration and eviction virtual networks are per-core queues of
//     thread slots — a hand-off is a queue push, with nothing encoded. Given
//     the injected contexts, the schedule is deterministic.
//   - Across processes (ServeNode/ClusterRun): each node process runs the
//     cores of its manifest entry, one goroutine per core, and contexts
//     cross real TCP sockets in their fixed wire encoding (transport.Node).
//
// Either way a run is resolve → inject → await halts → fold, written once
// in lifecycle.go; Machine.Run, ClusterRun.Run and the serve backends only
// choose the channels and the send function. ClusterRun is the one way to
// run a program by name on either shape — its manifest names the nodes, or
// only the mesh and the run stays in this process — and Litmus.Verify and
// Litmus.Identical check and compare what it returns; New and Machine.Run
// are the object-level entry for what names cannot express (first-touch
// placement, decorated schemes).
//
// The runtime preserves the paper's structural guarantees in both shapes:
//
//   - Single home: every word lives in exactly one per-core shard, and every
//     access — local, migrated-to, or remote — is serialized at that shard.
//     Sequential consistency follows, and the SC checker in this package
//     verifies it on recorded executions (experiment M1).
//
//   - Deadlock-free migration: each thread has a reserved native context;
//     evictions travel on a dedicated network (the paper's separate virtual
//     network) that is always consumed, so an eviction never waits
//     (experiment M2). In process its queues are unbounded; over TCP each
//     core's inbox has room for every thread native to it, a wire credit:
//     inbound readers always find inbox space, sockets always drain
//     (DESIGN.md §6).
package machine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/transport"
)

// Config describes the runtime.
type Config struct {
	Mesh          geom.Mesh
	GuestContexts int              // guest contexts per core; 0 = unlimited
	Placement     placement.Policy // must be safe for concurrent use; every internal/placement policy is
	Scheme        core.Scheme      // nil = pure EM² (always migrate); NewPredictor must be safe for concurrent use (predictor state is per thread and migrates with the context)
	Quantum       int              // instructions per scheduling slice (default 64)
	LogEvents     bool             // record memory events for the SC checker
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Mesh.Cores() <= 0 {
		return fmt.Errorf("machine: empty mesh")
	}
	if c.Placement == nil {
		return fmt.Errorf("machine: nil placement")
	}
	if c.GuestContexts < 0 {
		return fmt.Errorf("machine: negative guest contexts")
	}
	if c.Quantum < 0 {
		return fmt.Errorf("machine: negative quantum")
	}
	return nil
}

func defaultScheme() core.Scheme { return core.AlwaysMigrate{} }

// ThreadSpec describes one thread to run.
type ThreadSpec struct {
	Program []isa.Instr
	Regs    map[int]uint32 // initial register values
}

// validateSpecs checks every thread's initial register map. A spec with
// several bad registers reports the smallest, so the message does not
// depend on map order.
func validateSpecs(threads []ThreadSpec) error {
	for t := range threads {
		bad, found := 0, false
		//em2:unordered-ok: the minimum of the bad registers is order-independent
		for r := range threads[t].Regs {
			if (r <= 0 || r >= isa.NumRegs) && (!found || r < bad) {
				bad, found = r, true
			}
		}
		if found {
			return fmt.Errorf("machine: thread %d: bad initial register r%d", t, bad)
		}
	}
	return nil
}

// Result aggregates a run.
type Result struct {
	Instructions int64
	Migrations   int64
	Evictions    int64
	RemoteReads  int64
	RemoteWrites int64
	LocalOps     int64
	ContextFlits int64 // flits of context wire (incl. predictor state) shipped
	LeaseHits    int64 // remote reads served from a valid lease (no shard op)
	LeaseMisses  int64 // lease-requesting remote reads (also counted in RemoteReads)
	LeaseInvals  int64 // leases dropped by the holder's own write
	Overcommits  int64 // guest acceptances beyond GuestContexts (see CoreMetrics)

	// PerCore breaks the counters down by core, ascending by core id.
	PerCore []transport.CoreMetrics

	// FinalRegs[t] is thread t's register file at HALT.
	FinalRegs [][isa.NumRegs]uint32
	// Events is the merged memory-event log (LogEvents only), suitable for
	// CheckSC.
	Events []Event
}

// Machine is a runnable in-process EM² instance: one Part spanning every
// core over the in-process transport. Create with New, run with Run.
type Machine struct {
	numThreads int
	tr         *transport.Local
	part       *Part
	ran        bool
}

// New builds a machine for at most numThreads threads.
func New(cfg Config, numThreads int) (*Machine, error) {
	if numThreads <= 0 {
		return nil, fmt.Errorf("machine: need at least one thread")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr := transport.NewLocal(cfg.Mesh.Cores(), numThreads)
	part, err := NewPart(cfg, tr)
	if err != nil {
		return nil, err
	}
	return &Machine{numThreads: numThreads, tr: tr, part: part}, nil
}

// Preload stores a word at addr before the run, binding the page to `by`
// under first-touch placements — the runtime equivalent of the parallel
// initialization phase of the trace workloads.
func (m *Machine) Preload(addr uint32, value uint32, by geom.CoreID) {
	m.part.Preload(addr, value, by)
}

// Read returns the current word at addr without logging an event, for
// inspecting results after a run.
func (m *Machine) Read(addr uint32) uint32 {
	v, _ := m.part.Peek(addr)
	return v
}

// MemImage returns a copy of the machine's entire memory contents — every
// word any shard holds — for whole-state comparisons (the differential
// transport tests).
func (m *Machine) MemImage() map[uint32]uint32 {
	return m.part.MemImage()
}

// Run executes the threads to completion and returns aggregate results.
// Thread t starts at core t mod cores. A machine runs once. With no nodes
// to lose there is no timeout: the run ends when its threads do.
func (m *Machine) Run(threads []ThreadSpec) (*Result, error) {
	halts, err := m.run(threads, 0)
	if err != nil {
		return nil, err
	}
	res := newResult(m.part.collectState(0), halts)
	return &res, nil
}

// run is lifecycle.go's inject and await steps over the in-process
// transport, under Run and the in-process arm of ClusterRun.Run; a zero
// timeout never fires.
func (m *Machine) run(threads []ThreadSpec, timeout time.Duration) ([]transport.HaltMsg, error) {
	if len(threads) == 0 {
		return nil, fmt.Errorf("machine: no threads")
	}
	if len(threads) > m.numThreads {
		return nil, fmt.Errorf("machine: %d threads on a machine sized for %d", len(threads), m.numThreads)
	}
	if m.ran {
		return nil, fmt.Errorf("machine: Run called twice")
	}

	// Inject before the executor starts, so it takes every initial context
	// in its first round and the schedule cannot depend on when this
	// goroutine is descheduled; validate first, so a rejected run leaves
	// nothing queued. Injection never blocks.
	if err := validateSpecs(threads); err != nil {
		return nil, err
	}
	if err := Inject(threads, m.tr.Cores(), m.tr.SendEviction); err != nil {
		return nil, err
	}
	m.ran = true
	// Sized for every thread, so a halting core never blocks on the
	// collector below.
	halts := make(chan transport.HaltMsg, len(threads))
	if err := m.part.Start(threads, func(h transport.HaltMsg) { halts <- h }); err != nil {
		return nil, err
	}
	// There are no nodes to lose, so there is no death channel.
	got, err := AwaitHalts(len(threads), halts, nil, timeout, nil)
	m.part.Stop()
	return got, err
}
