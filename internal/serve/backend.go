package serve

import (
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/transport"
)

// Backend executes admitted jobs on a live machine. Its one
// implementation runs on a machine.Cluster, whose two transports —
// channels in process, TCP across nodes — are observationally identical:
// same halts, same counters, same events.
type Backend interface {
	// RunJob installs the job in the slot pool, injects its contexts, and
	// returns one halt per slot (indexed by slot) once every thread
	// finished. Follow with Retire before the next job.
	RunJob(j *Job, timeout time.Duration) ([]transport.HaltMsg, error)
	// Retire retires j, which takes everything the machine holds: every
	// slot, and every shard's words, lease records and event-log entries,
	// which is what keeps a long-running server's footprint at one job
	// instead of O(jobs). It runs only between jobs. The returned events
	// feed the job's own SC check; they are the machine's buffer
	// (Cluster.RetireJob), valid until the next Retire, so a caller that
	// keeps them clones them.
	Retire(j *Job, timeout time.Duration) ([]machine.Event, error)
	// Sample implements transport.MetricsSource over the live machine: a
	// non-destructive snapshot of per-core counters and gauges, mergeable
	// across nodes. At serve's sampling points (arrival-processing
	// boundaries) both transports return identical deterministic fields;
	// only the advisory Net differs. The slices are valid until the next
	// Sample (Cluster.Sample), as Retire's events are until the next
	// Retire, so a caller that keeps them clones them.
	Sample() (transport.Sample, error)
	// Drain ends the run and returns the machine's merged post-run state.
	Drain(timeout time.Duration) (*DrainResult, error)
	// Close releases the backend; safe after Drain and on error paths.
	Close()
}

// DrainResult is the machine's post-run state a report is built from.
// With every job retired through Retire, Events must be empty and
// MemWords zero — serve.Run enforces both, so a retire leak fails the
// run instead of silently growing the server.
type DrainResult struct {
	Events   []machine.Event
	Counters map[string]int64
	MemWords int // words still held by the machine's shards at drain
}

// loadSpec describes the serving machine by name, as the LoadSpec the
// backend resolves (and a TCP cluster ships): a pool of slots empty
// slots, events logged for the per-job SC check. GuestContexts stays 0
// (unlimited): capacity evictions depend on arrival timing between
// unrelated cores, which would make job latencies schedule-dependent and
// break the byte-identical report guarantee.
func (c Config) loadSpec(slots int) *transport.LoadSpec {
	return machine.ClusterConfig{Quantum: c.Quantum, Scheme: c.Scheme, Placement: c.Placement, LogEvents: true}.LoadSpec(slots)
}

// backend serves jobs on a loaded machine.Cluster: an in-process Machine
// or a TCP cluster, driven the same way.
type backend struct {
	cl machine.Cluster
}

// NewLocalBackend builds the in-process backend: NewClusterBackend on the
// manifest that names only the configured mesh.
func NewLocalBackend(cfg Config) (Backend, error) {
	cfg = cfg.withDefaults()
	return NewClusterBackend(cfg, transport.Manifest{W: cfg.W, H: cfg.H})
}

// NewClusterBackend loads the machine the manifest selects over the
// workload's slot pool: in this process when it names only the mesh, else
// the cluster it names — whose node processes (machine.ServeNode /
// cmd/em2node) must be starting or started on the manifest's addresses.
func NewClusterBackend(cfg Config, man transport.Manifest) (Backend, error) {
	cfg = cfg.withDefaults()
	if man.W != cfg.W || man.H != cfg.H {
		return nil, fmt.Errorf("serve: manifest mesh %dx%d does not match configured %dx%d", man.W, man.H, cfg.W, cfg.H)
	}
	slots, err := slotsFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	cl, err := machine.LoadCluster(man, cfg.loadSpec(slots), cfg.Timeout)
	if err != nil {
		return nil, err
	}
	return &backend{cl: cl}, nil
}

func (b *backend) RunJob(j *Job, timeout time.Duration) ([]transport.HaltMsg, error) {
	return b.cl.RunJob(j.Index, j.Threads, j.Mem, timeout)
}

// Retire issues j's retirement. On a cluster it is the retirement
// barrier — every node emptied itself before the next job is submitted —
// and the merged replies carry the job's events from whichever nodes
// homed its addresses.
func (b *backend) Retire(j *Job, timeout time.Duration) ([]machine.Event, error) {
	return b.cl.RetireJob(transport.JobDone{Job: j.Index}, timeout)
}

func (b *backend) Sample() (transport.Sample, error) {
	return b.cl.Sample()
}

func (b *backend) Drain(timeout time.Duration) (*DrainResult, error) {
	reps, err := b.cl.Collect(timeout)
	if err != nil {
		return nil, err
	}
	coll := machine.MergeCollect(reps)
	return &DrainResult{Events: coll.Events, Counters: coll.Counters, MemWords: len(coll.Mem)}, nil
}

// Close stops the machine; Cluster.Close is idempotent, so Close after
// Drain is safe.
func (b *backend) Close() { b.cl.Close() }
