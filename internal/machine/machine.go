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
//     thread slots — a hand-off is a queue push, with nothing encoded. A
//     job's contexts land in one round, so its schedule is deterministic.
//   - Across processes (ServeNode/ClusterRun): each node process steps the
//     cores of its manifest entry on the same executor, and contexts bound
//     for another node cross real TCP sockets in their fixed wire encoding
//     (transport.Node).
//
// Either way a run is a job on a loaded Cluster — install → inject → await
// halts → fold, written once in lifecycle.go — and LoadCluster picks the
// shape from the manifest alone: a Machine when it names only the mesh, a
// TCPCluster when it names nodes. ClusterRun (job 0 of a fresh Cluster) is
// the one way to run a program by name on either shape, and Litmus.Verify
// and Litmus.Identical check and compare what it returns; the serve
// package runs every job of a session on one Cluster. New and Machine.Run
// are the object-level facade over the same steps for what names cannot
// express (first-touch placement, decorated schemes).
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
//     (experiment M2). Its queues are unbounded on both transports, and a
//     TCP node's readers only queue, so sockets always drain (DESIGN.md
//     §6).
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
	Placement     placement.Policy // one part calls it from one goroutine at a time; shared by parts that run at once, it must be safe for concurrent use (every internal/placement policy is)
	Scheme        core.Scheme      // nil = pure EM² (always migrate); one part calls NewPredictor from one goroutine at a time (predictor state is per thread and migrates with the context)
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

// Machine is the in-process Cluster: one Part spanning every core over
// the in-process transport, its executor started by New over a pool of
// numThreads slots. Run it as a Cluster, job by job, or through Run, the
// one-job facade for a run that names cannot express.
type Machine struct {
	tr    *transport.Local
	part  *Part
	halts chan transport.HaltMsg
	timer *time.Timer // the halt barrier's, made by the first job with a timeout and reused
	ran   bool
	// sample is the buffer every Sample fills (Part.SampleInto).
	sample transport.Sample
}

// New builds a machine for at most numThreads threads and starts its
// executor, parked until the first job lands.
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
	// Sized for the pool, so a halting core never blocks on the collector.
	m := &Machine{tr: tr, part: part, halts: make(chan transport.HaltMsg, numThreads)}
	if err := part.StartServe(numThreads, func(h transport.HaltMsg) { m.halts <- h }); err != nil {
		return nil, err
	}
	return m, nil
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
//
//em2:reference-only the differential and determinism tests compare whole images
func (m *Machine) MemImage() (mem map[uint32]uint32) {
	m.part.call(func() { mem = m.part.memImage() })
	return mem
}

// Run executes the threads to completion as one job and returns aggregate
// results, then stops the machine. Thread t starts at core t mod cores. A
// machine runs once, and refuses only what checkJob does. With no nodes
// to lose there is no timeout: the run ends when its threads do.
func (m *Machine) Run(threads []ThreadSpec) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("machine: Run called twice")
	}
	if err := checkJob(threads); err != nil {
		return nil, err
	}
	m.ran = true
	halts, err := m.runJob(threads, nil, 0)
	m.Close()
	if err != nil {
		return nil, err
	}
	// The executor has exited, so the part is this goroutine's.
	res := newResult(m.part.collectState(0), halts)
	return &res, nil
}

// RunJob implements Cluster: checkWireJob, then runJob; nothing is
// encoded.
func (m *Machine) RunJob(_ int, threads []ThreadSpec, mem map[uint32]uint32, timeout time.Duration) ([]transport.HaltMsg, error) {
	if err := checkWireJob(threads); err != nil {
		return nil, err
	}
	return m.runJob(threads, mem, timeout)
}

// runJob runs a checked job: one command installs the threads and the
// job's memory image and injects every initial context, so the executor
// takes the whole job in one round — the schedule is a function of the
// job and the machine's state alone. A zero timeout never fires.
func (m *Machine) runJob(threads []ThreadSpec, mem map[uint32]uint32, timeout time.Duration) ([]transport.HaltMsg, error) {
	if err := m.part.install(threads, mem, m.tr.SendEviction); err != nil {
		return nil, err
	}
	if timeout > 0 && m.timer == nil {
		m.timer = idleTimer()
	}
	// There are no nodes to lose, so there is no death channel.
	return AwaitHalts(len(threads), m.halts, nil, m.timer, timeout, nil)
}

// RetireJob implements Cluster (Part.RetireJob).
func (m *Machine) RetireJob(d transport.JobDone, _ time.Duration) ([]Event, error) {
	return m.part.RetireJob(d), nil
}

// Sample implements Cluster: Part.SampleInto fills the machine's one
// buffer, so a warm sample allocates nothing and its slices are valid
// until the next Sample.
func (m *Machine) Sample() (transport.Sample, error) {
	m.part.SampleInto(&m.sample)
	return m.sample, nil
}

// Collect implements Cluster: the machine is one node with no wire.
func (m *Machine) Collect(time.Duration) ([]transport.CollectReply, error) {
	return []transport.CollectReply{m.part.Collect(0)}, nil
}

// NetStats implements Cluster: in process nothing crosses a wire.
func (m *Machine) NetStats() transport.NetStats { return transport.NetStats{} }

// Close implements Cluster: the executor stops (Part.Stop).
func (m *Machine) Close() { m.part.Stop() }
