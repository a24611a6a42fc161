package serve

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/transport"
)

// Backend executes admitted jobs on a live machine. The two
// implementations — channel transport in-process, TCP cluster — must be
// observationally identical: same halts, same counters, same events.
type Backend interface {
	// RunJob installs the job in the slot pool, injects its contexts, and
	// returns one halt per slot (indexed by slot) once every thread
	// finished. Follow with Retire before reusing the slots or region.
	RunJob(j *Job, timeout time.Duration) ([]transport.HaltMsg, error)
	// Retire clears the job's slots and reclaims its memory region —
	// deleting the region's shard words and removing (and returning) its
	// event-log entries, which is what keeps a long-running server's
	// footprint bounded by the in-flight window instead of O(jobs). The
	// returned events feed the job's own SC check.
	Retire(j *Job, timeout time.Duration) ([]machine.Event, error)
	// Sample implements transport.MetricsSource over the live machine: a
	// non-destructive snapshot of per-core counters and gauges, mergeable
	// across nodes. At serve's sampling points (arrival-processing
	// boundaries) both backends return identical deterministic fields; only
	// the advisory Net differs.
	Sample() (transport.Sample, error)
	// Drain ends the run and returns the machine's merged post-run state.
	Drain(timeout time.Duration) (*DrainResult, error)
	// Close releases the backend; safe after Drain and on error paths.
	Close()
}

// DrainResult is the machine's post-run state a report is built from.
// With every job retired through Retire, Events must be empty and
// MemWords zero — serve.Run enforces both, so a reclamation leak fails
// the run instead of silently growing the server.
type DrainResult struct {
	Events   []machine.Event
	Counters map[string]int64
	MemWords int // words still held by the machine's shards at drain
}

// loadSpec describes the serving machine by name, as the LoadSpec both
// backends resolve (and the cluster backend ships): a pool of slots empty
// slots, events logged for the per-job SC check. GuestContexts stays 0
// (unlimited): capacity evictions depend on arrival timing between
// unrelated cores, which would make job latencies schedule-dependent and
// break the byte-identical report guarantee.
func (c Config) loadSpec(slots int) *transport.LoadSpec {
	return machine.ClusterConfig{Quantum: c.Quantum, Scheme: c.Scheme, Placement: c.Placement, LogEvents: true}.LoadSpec(slots)
}

// localBackend serves jobs on an in-process Part over the channel
// transport — the single-machine shape of the server.
type localBackend struct {
	tr    *transport.Local
	part  *machine.Part
	halts chan transport.HaltMsg
}

// NewLocalBackend builds the in-process backend: one Part spanning the
// whole mesh, started over the workload's empty slot pool.
func NewLocalBackend(cfg Config) (Backend, error) {
	cfg = cfg.withDefaults()
	slots, err := slotsFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	mcfg, err := machine.ResolveLoad(geom.NewMesh(cfg.W, cfg.H), cfg.loadSpec(slots))
	if err != nil {
		return nil, err
	}
	tr := transport.NewLocal(mcfg.Mesh.Cores(), slots)
	part, err := machine.NewPart(mcfg, tr)
	if err != nil {
		return nil, err
	}
	b := &localBackend{tr: tr, part: part, halts: make(chan transport.HaltMsg, slots)}
	if err := part.StartServe(slots, func(h transport.HaltMsg) { b.halts <- h }); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *localBackend) RunJob(j *Job, timeout time.Duration) ([]transport.HaltMsg, error) {
	spec, err := machine.BuildJob(j.Index, j.Threads, j.Mem)
	if err != nil {
		return nil, err
	}
	if err := b.part.ApplyJob(spec); err != nil {
		return nil, err
	}
	if err := machine.Inject(j.Threads, b.tr.Cores(), b.tr.SendEviction); err != nil {
		return nil, err
	}
	return machine.AwaitHalts(len(j.Threads), b.halts, nil, timeout, nil)
}

func (b *localBackend) Retire(j *Job, _ time.Duration) ([]machine.Event, error) {
	return b.part.RetireJob(jobDone(j)), nil
}

// jobDone is j's retirement as both backends issue it: its slots and its
// whole region.
func jobDone(j *Job) transport.JobDone {
	return transport.JobDone{Job: j.Index, Threads: len(j.Threads), Base: j.Base, Size: RegionBytes}
}

func (b *localBackend) Sample() (transport.Sample, error) {
	return b.part.Sample()
}

func (b *localBackend) Drain(time.Duration) (*DrainResult, error) {
	b.part.Stop()
	return drainResult(b.part.Collect(0)), nil
}

// drainResult reads a DrainResult off the machine-wide collect reply.
func drainResult(coll transport.CollectReply) *DrainResult {
	return &DrainResult{Events: coll.Events, Counters: coll.Counters, MemWords: len(coll.Mem)}
}

// Close stops the part; Part.Stop is idempotent, so Close after Drain is safe.
func (b *localBackend) Close() { b.part.Stop() }

// clusterBackend serves jobs on an already-listening TCP cluster through
// the coordinator's job control plane.
type clusterBackend struct {
	co     *transport.Coordinator
	cores  int
	closed bool
}

// NewClusterBackend dials the cluster in the manifest and loads every node
// over the workload's slot pool. The node processes (machine.ServeNode / cmd/em2node)
// must be starting or started on the manifest's addresses.
func NewClusterBackend(cfg Config, man transport.Manifest) (Backend, error) {
	cfg = cfg.withDefaults()
	if man.W != cfg.W || man.H != cfg.H {
		return nil, fmt.Errorf("serve: manifest mesh %dx%d does not match configured %dx%d", man.W, man.H, cfg.W, cfg.H)
	}
	slots, err := slotsFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	co, err := machine.LoadCluster(man, cfg.loadSpec(slots), cfg.Timeout)
	if err != nil {
		return nil, err
	}
	return &clusterBackend{co: co, cores: man.Cores()}, nil
}

func (b *clusterBackend) RunJob(j *Job, timeout time.Duration) ([]transport.HaltMsg, error) {
	spec, err := machine.BuildJob(j.Index, j.Threads, j.Mem)
	if err != nil {
		return nil, err
	}
	return machine.RunJob(b.co, spec, j.Threads, b.cores, timeout)
}

func (b *clusterBackend) Retire(j *Job, timeout time.Duration) ([]machine.Event, error) {
	// The retirement barrier: every node cleared the slots and reclaimed
	// the region before the coordinator may reuse either. The merged
	// replies carry the job's events from whichever nodes homed its
	// addresses.
	return b.co.RetireJob(jobDone(j), timeout)
}

func (b *clusterBackend) Sample() (transport.Sample, error) {
	return b.co.Sample()
}

func (b *clusterBackend) Drain(timeout time.Duration) (*DrainResult, error) {
	reps, err := b.co.Collect(timeout)
	if err != nil {
		return nil, err
	}
	return drainResult(machine.MergeCollect(reps)), nil
}

func (b *clusterBackend) Close() {
	if !b.closed {
		b.closed = true
		b.co.Shutdown()
		b.co.Close()
	}
}
