package machine

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// PlacementNames lists the placement wire names ParsePlacement accepts, in
// presentation order, with their argument shapes.
func PlacementNames() []string {
	return []string{"striped[:LINEBYTES]", "page-striped[:PAGEBYTES]"}
}

// SchemeNames lists the decision-scheme wire names ParseScheme accepts, in
// presentation order, with their argument shapes.
func SchemeNames() []string {
	return []string{"always-migrate", "always-remote", "distance:N", "history:N", "cached-remote", "hybrid[:N]"}
}

// ParsePlacement builds a placement policy from its wire name. Cluster
// nodes must all compute the same home for every address from the name
// alone, so only the static, stateless policies are admissible here:
//
//	striped[:LINEBYTES]       (default line 64)
//	page-striped[:PAGEBYTES]  (default page 4096)
//
// First-touch is rejected: its page table lives in one process, and two
// nodes binding the same page to different homes would break the
// single-home invariant that gives EM² sequential consistency.
func ParsePlacement(spec string, cores int) (placement.Policy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	n := 0
	if hasArg {
		v, err := strconv.Atoi(arg)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("machine: bad placement argument %q (valid placements: %s)",
				spec, strings.Join(PlacementNames(), ", "))
		}
		n = v
	}
	switch name {
	case "striped":
		if n == 0 {
			n = 64
		}
		return placement.NewStriped(n, cores), nil
	case "page-striped":
		if n == 0 {
			n = placement.DefaultPageBytes
		}
		return placement.NewPageStriped(n, cores), nil
	case "first-touch":
		return nil, fmt.Errorf("machine: first-touch placement is per-process state and cannot be replicated across cluster nodes (two nodes could bind the same page to different homes); valid placements: %s",
			strings.Join(PlacementNames(), ", "))
	default:
		return nil, fmt.Errorf("machine: unknown placement %q (valid placements: %s)",
			spec, strings.Join(PlacementNames(), ", "))
	}
}

// ParseScheme builds a migrate-vs-remote decision scheme from its wire
// name: always-migrate, always-remote, distance:N, or history:N. Stateful
// schemes are admissible because all predictor state is per thread and
// ships inside the migrating context (transport.Context.Sched) — no node
// ever needs another node's history.
func ParseScheme(spec string, mesh geom.Mesh) (core.Scheme, error) {
	arg := func(prefix string) (int, error) {
		n, err := strconv.Atoi(strings.TrimPrefix(spec, prefix))
		if err != nil {
			return 0, fmt.Errorf("machine: bad argument in scheme %q (valid schemes: %s)",
				spec, strings.Join(SchemeNames(), ", "))
		}
		return n, nil
	}
	switch {
	case spec == "always-migrate":
		return core.AlwaysMigrate{}, nil
	case spec == "always-remote":
		return core.AlwaysRemote{}, nil
	case strings.HasPrefix(spec, "distance:"):
		n, err := arg("distance:")
		if err != nil {
			return nil, err
		}
		return core.NewDistance(mesh, n), nil
	case strings.HasPrefix(spec, "history:"):
		n, err := arg("history:")
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("machine: history run threshold must be positive in %q", spec)
		}
		return core.NewHistory(n), nil
	case spec == "cached-remote":
		return core.NewCachedRemote(), nil
	case spec == "hybrid":
		return core.NewHybrid(0), nil
	case strings.HasPrefix(spec, "hybrid:"):
		n, err := arg("hybrid:")
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("machine: hybrid lease window must be positive in %q", spec)
		}
		return core.NewHybrid(uint64(n)), nil
	default:
		return nil, fmt.Errorf("machine: unknown scheme %q (valid schemes: %s)",
			spec, strings.Join(SchemeNames(), ", "))
	}
}

// NodeOption customizes ServeNode.
type NodeOption func(*nodeOptions)

type nodeOptions struct {
	wireStats io.Writer
	// abort, when closed, releases a node no coordinator has loaded yet;
	// Loopback's join fires it. Nil (never ready) everywhere else.
	abort <-chan struct{}
	// ln, when set, is the open listener at the node's manifest address
	// (Loopback holds it from before the manifest exists); nil listens.
	ln net.Listener
}

// WithWireStats makes ServeNode print the node's wire-level traffic
// counters (batches, messages, bytes, coalescing factor) to w after the
// run.
func WithWireStats(w io.Writer) NodeOption {
	return func(o *nodeOptions) { o.wireStats = w }
}

// defaultHeartbeatMillis is the node liveness-report interval. Heartbeats
// are advisory — they never enter any deterministic result surface.
const defaultHeartbeatMillis = 500

// ServeNode runs one cluster node to completion: listen per the manifest,
// receive the coordinator's LoadSpec, start the executor over an
// empty slot pool and answer the load (or report the actual load failure),
// let the part answer every later request — each job's programs and memory
// arrive in a JobSpec — with contexts and remote accesses crossing the TCP
// transport, heartbeat liveness, report HALTs, and exit on shutdown. This
// is the whole of cmd/em2node.
func ServeNode(man transport.Manifest, idx int, opts ...NodeOption) error {
	var opt nodeOptions
	for _, o := range opts {
		o(&opt)
	}
	var tn *transport.Node
	var err error
	if opt.ln != nil {
		tn, err = transport.ListenNodeOn(man, idx, opt.ln)
	} else {
		tn, err = transport.ListenNode(man, idx)
	}
	if err != nil {
		return err
	}
	defer tn.Close()
	if opt.wireStats != nil {
		defer func() {
			fmt.Fprintf(opt.wireStats, "em2node %d wire: %s\n", idx, stats.NetLine(tn.NetStats()))
		}()
	}

	var spec *transport.LoadSpec
	select {
	case spec = <-tn.Loads():
	case <-tn.ShutdownC():
		return nil // coordinator aborted before loading
	case <-opt.abort:
		return nil // the run failed before any coordinator dialed
	}
	// failLoad ships the actual failure message to the coordinator before
	// this process exits: "unknown scheme …" at the driver beats a bare
	// connection death.
	failLoad := func(err error) error {
		if serr := tn.SendReply(transport.Reply{Err: err.Error()}); serr != nil {
			return fmt.Errorf("%w (and the load reply did not reach the coordinator: %v)", err, serr)
		}
		return err
	}
	cfg, err := ResolveLoad(geom.NewMesh(man.W, man.H), spec)
	if err != nil {
		return failLoad(err)
	}
	tn.Prepare(spec.NumThreads)
	part, err := NewPart(cfg, tn)
	if err != nil {
		return failLoad(err)
	}
	// The part answers every later request — job submit and retire,
	// sample, collect — on the coordinator link's reader.
	tn.HandleControl(part)
	// A halt that cannot be sent means the coordinator link is already
	// torn down; the coordinator's halt barrier times out and reports it.
	onHalt := func(h transport.HaltMsg) { _ = tn.SendHalt(h) } //em2:errsink-ok: no error path out of the halt callback; link teardown surfaces at the coordinator's barrier
	if err := part.StartServe(spec.NumThreads, onHalt); err != nil {
		return failLoad(err)
	}
	tn.Ready() // open the data plane: the queue and handlers are live
	if err := tn.SendReply(transport.Reply{}); err != nil {
		return err
	}
	tn.StartHeartbeat(defaultHeartbeatMillis * time.Millisecond)
	<-tn.ShutdownC()
	part.Stop()
	return nil
}

// Loopback self-hosts a cluster on TCP loopback: a manifest of reserved
// ports over a w x h mesh plus one in-process ServeNode goroutine per
// entry — the em2node code path without process spawn. Each node adopts
// the listener that reserved its port, so no port is ever released between
// reservation and use. join blocks until every node
// has exited and returns the lowest-numbered node's error, naming the
// node. Nodes exit when a coordinator shuts them down (ClusterRun.Run
// once it has dialed, a serve backend's Close) or when they fail; join
// also releases the nodes no coordinator ever loaded, so call it once the
// run is over, whether or not it got as far as dialing.
func Loopback(nodes, w, h int) (man transport.Manifest, join func() error, err error) {
	man, lns, err := transport.LocalListeners(nodes, w, h)
	if err != nil {
		return transport.Manifest{}, nil, err
	}
	abort := make(chan struct{})
	errs := make([]error, len(man.Nodes))
	var wg sync.WaitGroup
	for i := range man.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ServeNode(man, i, func(o *nodeOptions) { o.abort, o.ln = abort, lns[i] })
		}()
	}
	return man, sync.OnceValue(func() error {
		close(abort)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
		}
		return nil
	}), nil
}

// ClusterConfig describes a run by name: Scheme and Placement travel as
// wire names (see ParseScheme/ParsePlacement), and zero values take the
// defaults of WithDefaults.
type ClusterConfig struct {
	GuestContexts int
	Quantum       int
	Scheme        string
	Placement     string
	LogEvents     bool
	Timeout       time.Duration
}

// ClusterResult is a run's outcome on either transport: the aggregate
// Result plus the merged final memory image, the per-node counter
// breakdown, and each node's wire-level traffic counters (index-aligned
// with NodeCounters). An in-process run is one node with no wire.
type ClusterResult struct {
	Result
	Mem          map[uint32]uint32
	NodeCounters []map[string]int64
	NodeNet      []transport.NetStats
	// CoordNet is the coordinator's own wire traffic; its send side shows
	// the injection batching (a whole run's initial contexts reach each
	// node in one write).
	CoordNet transport.NetStats
}

// ClusterRun is the spec for one run. Manifest names the mesh and the node
// processes — or the mesh alone, and the run stays in this process —
// Config the run parameters, Threads and Mem the program and initial
// image; Sink optionally receives the run's telemetry.
type ClusterRun struct {
	Manifest transport.Manifest
	Config   ClusterConfig
	// Threads is the full machine-wide thread list; thread t starts at
	// core t mod cores.
	Threads []ThreadSpec
	// Mem is the initial memory image, broadcast with the job's programs
	// (each node preloads the addresses it homes).
	Mem map[uint32]uint32
	// Sink, when set, receives one deterministic end-of-run telemetry
	// sample: the collected per-core counters with quiescent gauges,
	// stamped at the slowest thread's halt cycle. A closed-loop run has no
	// virtual clock ticking between injection and the halt barrier, so one
	// sample is all the determinism contract allows; open-loop serving
	// (serve.Config.Sink) is where periodic virtual-time series come from.
	Sink telemetry.Sink
}

// Run executes the description as job 0 of the Cluster its manifest
// loads: load, run the job (install, inject, await HALTs), collect, close.
// A manifest that names nodes drives that already-listening cluster — the
// node processes (ServeNode / cmd/em2node) must be starting or started on
// the manifest's addresses, and dialing retries until Config.Timeout. A
// manifest that names only the mesh (transport.Manifest{W, H}) runs the
// same description on an in-process Machine. Either way the threads are
// checked (checkWireJob) and the description resolved before anything is
// dialed, so both transports accept and reject exactly the same runs.
func (r ClusterRun) Run() (*ClusterResult, error) {
	if err := checkWireJob(r.Threads); err != nil {
		return nil, err
	}
	cfg := r.Config.WithDefaults()
	cl, err := LoadCluster(r.Manifest, cfg.LoadSpec(len(r.Threads)), cfg.Timeout)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	halts, err := cl.RunJob(0, r.Threads, r.Mem, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	reps, err := cl.Collect(cfg.Timeout)
	if err != nil {
		return nil, err
	}
	return r.finish(reps, halts, cl.NetStats())
}

// finish folds the per-node replies and halts into the result and emits
// the end-of-run sample.
func (r ClusterRun) finish(reps []transport.CollectReply, halts []transport.HaltMsg, coordNet transport.NetStats) (*ClusterResult, error) {
	all := MergeCollect(reps)
	res := &ClusterResult{Result: newResult(all, halts), Mem: all.Mem, CoordNet: coordNet}
	for _, rep := range reps {
		res.NodeCounters = append(res.NodeCounters, stats.CounterMap(transport.SumMetrics(rep.PerCore)))
		var net transport.NetStats
		if rep.Net != nil {
			net = *rep.Net
		}
		res.NodeNet = append(res.NodeNet, net)
	}
	if r.Sink != nil {
		// One deterministic end-of-run sample: the collected counters with
		// quiescent gauges (every thread halted, nothing resident), stamped
		// at the slowest thread's halt cycle. Built entirely from surfaces
		// the differential tests already pin, so enabling the sink changes
		// nothing and the stream matches byte-for-byte across transports.
		var maxCycles uint64
		for _, h := range halts {
			maxCycles = max(maxCycles, h.Cycles)
		}
		s := transport.Sample{
			Cycle:   maxCycles,
			PerCore: res.PerCore,
			Guests:  make([]int64, len(res.PerCore)),
			Words:   int64(len(res.Mem)),
			Events:  int64(len(res.Events)),
		}
		if _, err := telemetry.EmitSample(r.Sink, nil, &s, maxCycles); err != nil {
			return nil, fmt.Errorf("machine: telemetry sink: %w", err)
		}
	}
	return res, nil
}
