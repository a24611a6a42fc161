package machine

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/transport"
)

// This file is the run lifecycle, written once. A run is a job on a loaded
// Cluster, whatever transport carries it: LoadCluster returns a Machine
// when the manifest names only the mesh and a TCPCluster when it names
// node processes, and ClusterRun.Run and the serve backend drive either
// through the same Cluster methods (DESIGN.md §6–§7):
//
//	resolve  names → the LoadSpec that ships them → validated Config
//	install  the job's threads into slots 0..n-1 and its memory image
//	         (Part.install; on a cluster, from the job's one-way submit)
//	inject   every thread's initial context to its native core
//	await    one HALT per thread, or the first death / timeout
//	fold     collected shards → one CollectReply → Result

// WithDefaults fills the zero values of a run description: pure EM² over
// 64-byte striping with a 60 s timeout. Defined here and nowhere else;
// serve.Config inherits them through this method.
func (c ClusterConfig) WithDefaults() ClusterConfig {
	if c.Scheme == "" {
		c.Scheme = "always-migrate"
	}
	if c.Placement == "" {
		c.Placement = "striped:64"
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// LoadSpec renders the description as the broadcast that ships it, over
// a pool of numThreads thread slots. Programs and memory reach
// Cluster.RunJob per job; a TCPCluster ships them in a JobSpec.
func (c ClusterConfig) LoadSpec(numThreads int) *transport.LoadSpec {
	c = c.WithDefaults()
	return &transport.LoadSpec{
		GuestContexts: c.GuestContexts,
		Quantum:       c.Quantum,
		Scheme:        c.Scheme,
		Placement:     c.Placement,
		LogEvents:     c.LogEvents,
		NumThreads:    numThreads,
	}
}

// ResolveLoad builds the validated Config a LoadSpec describes on mesh.
// Every node resolves the spec it received through here and every driver
// resolves the spec it is about to send, so whatever a node would reject
// fails fast at the driver, with the same message.
func ResolveLoad(mesh geom.Mesh, spec *transport.LoadSpec) (Config, error) {
	cfg := Config{Mesh: mesh, GuestContexts: spec.GuestContexts, Quantum: spec.Quantum, LogEvents: spec.LogEvents}
	var err error
	if cfg.Placement, err = ParsePlacement(spec.Placement, mesh.Cores()); err != nil {
		return Config{}, err
	}
	if cfg.Scheme, err = ParseScheme(spec.Scheme, mesh); err != nil {
		return Config{}, err
	}
	return cfg, cfg.Validate()
}

// Cluster is a loaded machine that runs jobs, one at a time: the
// in-process Machine, or a TCPCluster of node processes, which alone
// encodes a job. Both refuse the same jobs with the same messages
// (checkWireJob), and on a job they both accept they report the same
// halts, counters and events.
type Cluster interface {
	// RunJob installs job — threads 0..len(threads)-1 of the slot pool —
	// preloads its memory image mem, injects every thread's initial
	// context and returns one halt per thread, indexed by thread. Follow
	// with RetireJob before the next job; threads and mem must not change
	// until then.
	RunJob(job int, threads []ThreadSpec, mem map[uint32]uint32, timeout time.Duration) ([]transport.HaltMsg, error)
	// RetireJob retires the finished job, which takes everything the
	// machine holds — every slot, and every shard's words, lease records
	// and events — and runs only between jobs. It returns the events in a
	// buffer the cluster reuses: the slice is valid until the next
	// RetireJob, so a caller that keeps the events clones them.
	RetireJob(d transport.JobDone, timeout time.Duration) ([]Event, error)
	// Sample is a non-destructive snapshot of per-core counters and
	// gauges (transport.MetricsSource). Its slices may be a buffer the
	// cluster reuses: they are valid until the next Sample, so a caller
	// that keeps them clones them.
	Sample() (transport.Sample, error)
	// Collect returns each node's post-run state, ascending by node; the
	// in-process machine is one node with no wire.
	Collect(timeout time.Duration) ([]transport.CollectReply, error)
	// NetStats is the driver's own wire traffic; zero in process.
	NetStats() transport.NetStats
	// Close stops the machine (shutting the nodes down); idempotent.
	Close()
}

// LoadCluster brings a machine to the point where jobs may run. A
// manifest that names only the mesh (transport.Manifest{W, H}) builds an
// in-process Machine over the pool spec describes. One that names nodes
// loads that already-listening cluster: resolve spec here (fail fast),
// dial, and load — the barrier that turns a node's load failure into its
// actual message and guarantees every data plane is open. On failure the
// nodes are shut down.
func LoadCluster(man transport.Manifest, spec *transport.LoadSpec, timeout time.Duration) (Cluster, error) {
	if len(man.Nodes) == 0 {
		if man.W <= 0 || man.H <= 0 {
			return nil, fmt.Errorf("machine: bad mesh %dx%d", man.W, man.H)
		}
		cfg, err := ResolveLoad(geom.NewMesh(man.W, man.H), spec)
		if err != nil {
			return nil, err
		}
		m, err := New(cfg, spec.NumThreads)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if _, err := ResolveLoad(geom.NewMesh(man.W, man.H), spec); err != nil {
		return nil, err
	}
	co, err := transport.DialCluster(man, timeout)
	if err != nil {
		return nil, err
	}
	if err := co.Load(spec, timeout); err != nil {
		co.Shutdown()
		co.Close()
		return nil, err
	}
	return &TCPCluster{Coordinator: co, cores: man.Cores(), timer: idleTimer()}, nil
}

// TCPCluster is a loaded cluster of node processes, driven through its
// coordinator.
type TCPCluster struct {
	*transport.Coordinator
	cores int
	timer *time.Timer       // the halt barrier's, reused by every job
	spec  transport.JobSpec // the submit's encoding target, reused by every job
}

// Inject places every thread's initial context at its native core — thread
// t at core t mod cores — by handing it to send, the eviction network of
// whatever transport drives the run (Local.SendEviction in process, inside
// the job's install command; Coordinator.InjectEviction across nodes): a
// native arrival is always accepted, so initial placement can never be
// refused.
func Inject(threads []ThreadSpec, cores int, send func(geom.CoreID, transport.Context) error) error {
	for t := range threads {
		ctx := transport.Context{Thread: int32(t), Native: int32(t % cores)}
		//em2:unordered-ok: each register lands in its own array slot; the filled Regs array is order-independent
		for r, v := range threads[t].Regs {
			ctx.Arch.Regs[r] = v
		}
		if err := send(geom.CoreID(t%cores), ctx); err != nil {
			return err
		}
	}
	return nil
}

// RunJob implements Cluster: checkWireJob, the one-way submit and every
// thread's initial context behind it in each node's batch, flushed — one
// write per node, with no round trip before it — and the halt barrier,
// where a node's refusal of the job also arrives and whose timeout names
// each node's last heartbeat. A node installs the job before it reads the
// injections behind the submit, and holds a peer's frame that outruns the
// submit until then (Part's hold rule).
func (c *TCPCluster) RunJob(job int, threads []ThreadSpec, mem map[uint32]uint32, timeout time.Duration) ([]transport.HaltMsg, error) {
	if err := checkWireJob(threads); err != nil {
		return nil, err
	}
	encodeJob(&c.spec, job, threads, mem)
	if err := c.SubmitJob(&c.spec); err != nil {
		return nil, err
	}
	if err := Inject(threads, c.cores, c.InjectEviction); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return AwaitHalts(len(threads), c.Halts(), c.Deaths(), c.timer, timeout, c.HeartbeatSummary)
}

// idleTimer returns a stopped timer for AwaitHalts to arm, job after job.
func idleTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// Close implements Cluster: tell every node to exit, then drop the links.
// Repeating it only fails writes on closed links.
func (c *TCPCluster) Close() {
	c.Shutdown()
	c.Coordinator.Close()
}

// AwaitHalts collects one HALT report per thread from halts and returns
// them indexed by thread. It fails on a closed channel, an out-of-range or
// repeated thread, an error on deaths (a node died: every context and
// shard it held is gone, so fail at once instead of bleeding out into the
// timeout), or the timeout — whose error carries diag's text, the one
// place a timeout becomes a diagnosis. A zero timeout never fires and nil
// deaths/diag are skipped: the in-process machine has no nodes to lose.
//
// The timeout runs on timer, a stopped timer (idleTimer) that AwaitHalts
// resets and stops again before it returns, so a cluster reuses one for
// every job (a Go 1.23 timer delivers no stale expiry after Stop). For up
// to 64 threads the result is its one allocation.
func AwaitHalts(n int, halts <-chan transport.HaltMsg, deaths <-chan error, timer *time.Timer, timeout time.Duration, diag func() string) ([]transport.HaltMsg, error) {
	var expired <-chan time.Time
	if timeout > 0 {
		timer.Reset(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	out := make([]transport.HaltMsg, n)
	// Track exactly which threads halted: a halt counter alone would let a
	// duplicate (or fabricated) report for one thread mask another thread
	// that never finished, and the run would "complete" with garbage
	// registers for the missing thread.
	var small [64]bool
	seen := small[:]
	if n > len(small) {
		seen = make([]bool, n)
	}
	for got := 0; got < n; got++ {
		select {
		case h, ok := <-halts:
			if !ok {
				return nil, fmt.Errorf("machine: halt channel closed with %d of %d threads halted", got, n)
			}
			if h.Thread < 0 || h.Thread >= n {
				return nil, fmt.Errorf("machine: halt report for unknown thread %d", h.Thread)
			}
			if seen[h.Thread] {
				return nil, fmt.Errorf("machine: duplicate halt report for thread %d", h.Thread)
			}
			seen[h.Thread] = true
			out[h.Thread] = h
		case err := <-deaths:
			return nil, fmt.Errorf("machine: cluster run failed with %d of %d threads halted: %v", got, n, err)
		case <-expired:
			why := ""
			if diag != nil {
				why = " (" + diag() + ")"
			}
			return nil, fmt.Errorf("machine: run timed out with %d of %d threads halted%s", got, n, why)
		}
	}
	return out, nil
}

// MergeCollect folds per-node collect replies into the machine-wide one:
// event logs and memory slices joined, per-core rows ascending by core,
// counters re-derived from the rows. One reply from a part spanning the
// whole machine merges to itself.
func MergeCollect(reps []transport.CollectReply) transport.CollectReply {
	var all transport.CollectReply
	for _, rep := range reps {
		all.Grow(rep.Events, rep.Mem, rep.PerCore...)
	}
	slices.SortFunc(all.PerCore, func(a, b transport.CoreMetrics) int { return cmp.Compare(a.Core, b.Core) })
	all.Counters = stats.CounterMap(transport.SumMetrics(all.PerCore))
	return all
}

// newResult is the one conversion from collected state to a Result: totals
// from the per-core rows, final registers from the halts.
func newResult(coll transport.CollectReply, halts []transport.HaltMsg) Result {
	t := transport.SumMetrics(coll.PerCore)
	res := Result{
		Instructions: t.Instructions,
		Migrations:   t.Migrations,
		Evictions:    t.Evictions,
		RemoteReads:  t.RemoteReads,
		RemoteWrites: t.RemoteWrites,
		LocalOps:     t.LocalOps,
		ContextFlits: t.ContextFlits,
		LeaseHits:    t.LeaseHits,
		LeaseMisses:  t.LeaseMisses,
		LeaseInvals:  t.LeaseInvals,
		Overcommits:  t.Overcommits,
		PerCore:      coll.PerCore,
		Events:       coll.Events,
		FinalRegs:    make([][isa.NumRegs]uint32, len(halts)),
	}
	for t, h := range halts {
		res.FinalRegs[t] = h.Regs
	}
	return res
}
