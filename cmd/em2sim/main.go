// Command em2sim runs one EM² configuration over a synthetic workload and
// prints the result: migrations, evictions, remote accesses, cycle and
// traffic totals, and the run-length histogram.
//
// Usage:
//
//	em2sim -workload ocean -scheme always-migrate -cores 64 -threads 64
//	em2sim -workload pingpong -scheme distance:3 -mem
//	em2sim -workload radix -scheme oracle
//	em2sim -workload ocean -json            # machine-readable result
//	em2sim -list-schemes                    # valid scheme/placement names
//
// The -workload flag accepts an optional sizing suffix everywhere:
// `name[:scale,iters,seed]` (each field optional positionally), which
// overrides -scale/-iters/-seed.
//
// Cluster mode instead drives the concurrent runtime across N real node
// processes on TCP loopback (em2sim re-executes itself as the nodes), runs
// a program with contexts serialized over the wire — including per-thread
// predictor state for stateful schemes like history:N — and validates the
// recorded execution with the SC checker. With an explicit -workload, the
// named trace workload is compiled to real ISA programs (internal/wprog)
// and executed across the cluster, and the runtime's message counts are
// checked against the §3 trace model's predictions (exact with -guests 0);
// otherwise -cluster-prog selects a litmus program:
//
//	em2sim -cluster 2 -cluster-prog counter -cores 4 -threads 8
//	em2sim -cluster 3 -scheme history:2
//	em2sim -cluster 3 -workload ocean -scheme history:2
//	em2sim -cluster 2 -workload fft:8,1,7 -cores 4 -threads 4 -stats
//	em2sim -cluster 4 -cluster-prog rand-priv:7 -cores 16 -stats
//	em2sim -cluster 16 -cores 256 -threads 256 -workload ocean:256,1,1 \
//	    -scheme history:2 -placement page-striped -json   # the README soak
//
// The control plane is O(nodes): a node's load failure surfaces with its
// actual error message (load-ack barrier), injection reaches each node as
// one batched write, collection streams back in per-core chunks, and a
// hung run's timeout diagnostic lists each node's last heartbeat
// (DESIGN.md §6).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/wprog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command with injectable argv and streams, so the CLI
// tests can pin flag handling, error text, and output without a subprocess.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("em2sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "ocean", "workload name[:scale,iters,seed]: "+strings.Join(workload.Names(), " "))
	schemeName := fs.String("scheme", "always-migrate", "decision scheme: "+strings.Join(machine.SchemeNames(), ", ")+" (trace mode also: oracle)")
	placeName := fs.String("placement", "first-touch", "placement: "+strings.Join(machine.PlacementNames(), ", ")+" (trace mode also: first-touch)")
	cores := fs.Int("cores", 64, "core count (square mesh)")
	threads := fs.Int("threads", 64, "thread count")
	scale := fs.Int("scale", 128, "workload scale")
	iters := fs.Int("iters", 2, "workload iterations")
	seed := fs.Uint64("seed", 2011, "workload seed")
	guests := fs.Int("guests", 0, "guest contexts per core (0 = unlimited/model)")
	mem := fs.Bool("mem", false, "charge cache/DRAM latencies (full fidelity)")
	hist := fs.Bool("hist", false, "print the run-length histogram")
	jsonOut := fs.Bool("json", false, "emit the result as JSON")
	statsOut := fs.Bool("stats", false, "cluster mode: print the per-core runtime metrics table")
	listSchemes := fs.Bool("list-schemes", false, "list decision schemes and placements and exit")
	cluster := fs.Int("cluster", 0, "run the concurrent runtime across N node processes over TCP loopback")
	clusterProg := fs.String("cluster-prog", "counter", "cluster program: counter, mp, sb, rand:SEED, rand-priv:SEED")
	serveNode := fs.Int("serve-node", -1, "internal: serve one cluster node of -serve-manifest and exit")
	serveManifest := fs.String("serve-manifest", "", "internal: manifest path for -serve-node")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "em2sim:", err)
		return 1
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	wlName, ov, err := parseWorkloadSpec(*wl)
	if err != nil {
		return fail(err)
	}
	if ov.hasScale {
		*scale = ov.scale
	}
	if ov.hasIters {
		*iters = ov.iters
	}
	if ov.hasSeed {
		*seed = ov.seed
	}

	if *listSchemes {
		printSchemes(stdout)
		return 0
	}
	if *serveNode >= 0 {
		man, err := transport.LoadManifest(*serveManifest)
		if err != nil {
			return fail(err)
		}
		if err := machine.ServeNode(man, *serveNode); err != nil {
			return fail(err)
		}
		return 0
	}
	if *cluster > 0 {
		// Trace mode defaults to first-touch, which cannot run across
		// nodes; in cluster mode an unset -placement means striped:64,
		// while an explicit choice (including first-touch) is honored and
		// validated by ClusterRun.Run.
		clusterPlace := "striped:64"
		if set["placement"] {
			clusterPlace = *placeName
		}
		// An explicit -workload selects compiled-workload mode. Its sizing
		// defaults are smaller than trace mode's (compiled programs execute
		// every access on the real machine): scale 16, iters 1 unless the
		// suffix or an explicit flag says otherwise.
		compiledWL := ""
		if set["workload"] {
			compiledWL = wlName
			if !ov.hasScale && !set["scale"] {
				*scale = 16
			}
			if !ov.hasIters && !set["iters"] {
				*iters = 1
			}
		}
		cfg := workload.Config{Threads: *threads, Scale: *scale, Iters: *iters, Seed: *seed}
		if err := runCluster(stdout, *cluster, *clusterProg, compiledWL, cfg, *cores, *threads, *guests,
			*schemeName, clusterPlace, *jsonOut, *statsOut); err != nil {
			return fail(err)
		}
		return 0
	}

	gen, err := workload.Get(wlName)
	if err != nil {
		return fail(err)
	}
	// Normalize explicitly: a zero flag value is a clean CLI error here,
	// not the generator's internal panic.
	wcfg, err := workload.Config{Threads: *threads, Scale: *scale, Iters: *iters, Seed: *seed}.Normalized()
	if err != nil {
		return fail(err)
	}
	tr := gen(wcfg)

	cfg := core.DefaultConfig()
	cfg.Mesh = geom.SquareMesh(*cores)
	cfg.GuestContexts = *guests
	cfg.ChargeMemory = *mem

	// First-touch is trace mode's own; every other name is a cluster
	// placement. A policy binds pages as it runs, so each run gets a
	// fresh one.
	newPlace := func() (placement.Policy, error) {
		if *placeName == "first-touch" {
			return placement.NewFirstTouch(workload.PageBytes), nil
		}
		return machine.ParsePlacement(*placeName, cfg.Mesh.Cores())
	}
	place, err := newPlace()
	if err != nil {
		return fail(fmt.Errorf("%v (trace mode also accepts: first-touch)", err))
	}

	var scheme core.Scheme
	if *schemeName == "oracle" {
		opt := oracle.OptimalForTrace(cfg, tr, place)
		if place, err = newPlace(); err != nil {
			return fail(err)
		}
		scheme = core.NewFixed("oracle", opt.Decisions)
	} else if scheme, err = machine.ParseScheme(*schemeName, cfg.Mesh); err != nil {
		return fail(fmt.Errorf("%v (trace mode also accepts: oracle)", err))
	}

	eng, err := core.NewEngine(cfg, place, scheme)
	if err != nil {
		return fail(err)
	}
	res, err := eng.Run(tr, nil)
	if err != nil {
		return fail(err)
	}

	if *jsonOut {
		counters := make(map[string]int64)
		for _, n := range res.Counters.Names() {
			counters[n] = res.Counters.Get(n)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Workload       string           `json:"workload"`
			Scheme         string           `json:"scheme"`
			Placement      string           `json:"placement"`
			Cores          int              `json:"cores"`
			Threads        int              `json:"threads"`
			Seed           uint64           `json:"seed"`
			Accesses       int64            `json:"accesses"`
			Migrations     int64            `json:"migrations"`
			Evictions      int64            `json:"evictions"`
			RemoteAccesses int64            `json:"remote_accesses"`
			NetworkCycles  int64            `json:"network_cycles"`
			MemoryCycles   int64            `json:"memory_cycles"`
			TotalCycles    int64            `json:"total_cycles"`
			Traffic        int64            `json:"traffic_flit_hops"`
			BitsMoved      int64            `json:"bits_moved"`
			Counters       map[string]int64 `json:"counters"`
		}{
			Workload: tr.Name, Scheme: scheme.Name(), Placement: *placeName,
			Cores: cfg.Mesh.Cores(), Threads: *threads, Seed: *seed,
			Accesses: res.Accesses, Migrations: res.Migrations,
			Evictions: res.Evictions, RemoteAccesses: res.RemoteAccesses,
			NetworkCycles: res.Cycles, MemoryCycles: res.MemoryCycles,
			TotalCycles: res.TotalCycles(), Traffic: res.Traffic,
			BitsMoved: res.BitsMoved, Counters: counters,
		}); err != nil {
			return fail(err)
		}
		return 0
	}

	sum := tr.Summarize()
	fmt.Fprintf(stdout, "workload : %s (%s)\n", tr.Name, sum)
	fmt.Fprintf(stdout, "platform : %v, %d guest contexts, scheme %s, placement %s\n",
		cfg.Mesh, cfg.GuestContexts, scheme.Name(), *placeName)
	fmt.Fprintf(stdout, "result   : %s\n", res)
	fmt.Fprintf(stdout, "cycles   : network=%d memory=%d total=%d\n", res.Cycles, res.MemoryCycles, res.TotalCycles())
	fmt.Fprintf(stdout, "traffic  : %d flit-hops, %d context/request bits moved\n", res.Traffic, res.BitsMoved)
	fmt.Fprintf(stdout, "counters :\n%s", indent(res.Counters.String()))
	if *hist {
		fmt.Fprintf(stdout, "run-length histogram:\n%s", res.RunLengths.Render(60))
	}
	return 0
}

// wireNameDescs annotates the parser-authoritative wire names
// (machine.SchemeNames / machine.PlacementNames) for -list-schemes. A name
// the parsers grow without a blurb here still prints — the lists stay the
// single source of truth for what exists.
var wireNameDescs = map[string]string{
	"always-migrate":           "pure EM²: every non-local access migrates (default)",
	"always-remote":            "remote-access-only baseline: execution never moves",
	"distance:N":               "migrate when hops(cur,home) <= N",
	"history:N":                "migrate when the page's last run >= N; per-thread state migrates with the context",
	"cached-remote":            "pure caching: reads fill a per-core lease cache, writes stay remote, execution never moves",
	"hybrid[:N]":               "leased reads (window N, default 64) + history-driven write migration",
	"striped[:LINEBYTES]":      "home = (addr/LINEBYTES) mod cores (default line 64)",
	"page-striped[:PAGEBYTES]": "home = (addr/PAGEBYTES) mod cores (default page 4096)",
}

// printSchemes renders the scheme and placement wire-name reference,
// including which modes accept each name.
func printSchemes(w io.Writer) {
	row := func(name string) { fmt.Fprintf(w, "  %-24s %s\n", name, wireNameDescs[name]) }
	fmt.Fprintln(w, "decision schemes (trace mode and -cluster):")
	for _, name := range machine.SchemeNames() {
		row(name)
	}
	fmt.Fprintf(w, "  %-24s %s\n", "oracle", "§3 DP optimum (trace mode only: needs the whole trace in advance)")
	fmt.Fprintln(w, "placements (trace mode):")
	fmt.Fprintf(w, "  %-24s %s\n", "first-touch", "bind each page to the first core that touches it")
	fmt.Fprintln(w, "placements (trace mode and -cluster):")
	for _, name := range machine.PlacementNames() {
		row(name)
	}
	fmt.Fprintln(w, "first-touch is rejected in cluster mode: its page table is per-process state,")
	fmt.Fprintln(w, "and two nodes binding one page to different homes would break the single-home")
	fmt.Fprintln(w, "invariant behind EM²'s sequential consistency.")
}

// litmusFor resolves a -cluster-prog name into a litmus program. stride is
// the address offset that homes the two-address litmuses' second word on
// the far node, so the flagship cluster programs provably cross the wire.
func litmusFor(name string, threads int, stride uint32) (machine.Litmus, error) {
	base, arg, hasArg := strings.Cut(name, ":")
	seed := uint64(1)
	if hasArg {
		v, err := strconv.ParseUint(arg, 10, 64)
		if err != nil {
			return machine.Litmus{}, fmt.Errorf("bad program seed %q", name)
		}
		seed = v
	}
	switch base {
	case "counter":
		if threads <= 0 {
			threads = 8
		}
		return machine.AtomicCounterLitmus(threads, 50), nil
	case "mp":
		return machine.MessagePassingLitmus(stride), nil
	case "sb":
		return machine.StoreBufferingLitmus(stride), nil
	case "rand":
		return machine.RandomLitmus(seed, machine.RandOpts{Threads: threads}), nil
	case "rand-priv":
		return machine.RandomLitmus(seed, machine.RandOpts{Threads: threads, PrivateWrites: true}), nil
	default:
		return machine.Litmus{}, fmt.Errorf("unknown cluster program %q", name)
	}
}

// parsedWorkloadOverrides carries the optional `:scale,iters,seed` suffix
// of a -workload argument.
type parsedWorkloadOverrides struct {
	scale, iters       int
	seed               uint64
	hasScale, hasIters bool
	hasSeed            bool
}

// parseWorkloadSpec splits "name[:scale,iters,seed]"; suffix fields are
// positional and each may be left empty ("ocean:,3" overrides only iters).
func parseWorkloadSpec(spec string) (string, parsedWorkloadOverrides, error) {
	var ov parsedWorkloadOverrides
	name, suffix, has := strings.Cut(spec, ":")
	if !has {
		return name, ov, nil
	}
	fields := strings.Split(suffix, ",")
	if len(fields) > 3 {
		return "", ov, fmt.Errorf("workload spec %q: want name[:scale,iters,seed]", spec)
	}
	for i, f := range fields {
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return "", ov, fmt.Errorf("workload spec %q: bad field %q", spec, f)
		}
		switch i {
		case 0:
			ov.scale, ov.hasScale = int(v), true
		case 1:
			ov.iters, ov.hasIters = int(v), true
		case 2:
			ov.seed, ov.hasSeed = uint64(v), true
		}
	}
	return name, ov, nil
}

// runCluster launches an N-node loopback cluster (re-executing this binary
// as the node processes), drives one program through it with contexts
// crossing real TCP sockets, and validates the recorded execution with
// machine.CheckSC. With compiledWL set, the program is the named workload
// compiled to ISA programs and the runtime counters are additionally
// checked against the §3 trace model's prediction (exact when guests is 0;
// with guest eviction enabled the counts are schedule-dependent and the
// comparison is reported, not enforced).
func runCluster(stdout io.Writer, nodes int, progName, compiledWL string, wcfg workload.Config, cores, threads, guests int, scheme, place string, jsonOut, statsOut bool) error {
	mesh := geom.SquareMesh(cores)
	var lit machine.Litmus
	var comp *wprog.Compiled
	if compiledWL != "" {
		var err error
		if comp, err = wprog.CompileWorkload(compiledWL, wcfg, mesh.Cores()); err != nil {
			return err
		}
		lit = comp.Litmus()
	} else {
		// Under striped:64, address 64*k is homed at core k; LocalManifest
		// splits cores into contiguous blocks, so the first core of the last
		// node is the nearest provably-remote home for a two-address litmus.
		farCore := (nodes - 1) * mesh.Cores() / nodes
		stride := uint32(64 * farCore)
		if farCore == 0 {
			stride = 64
		}
		var err error
		if lit, err = litmusFor(progName, threads, stride); err != nil {
			return err
		}
	}
	man, err := transport.LocalManifest(nodes, mesh.Width(), mesh.Height())
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "em2sim-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "manifest.json")
	if err := man.WriteFile(path); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	procs := make([]*exec.Cmd, nodes)
	// earlyExit fires if any node dies before the run completes (port
	// stolen, bad manifest, crash): fail fast with the real cause instead
	// of waiting out the coordinator's dial/run timeout.
	earlyExit := make(chan error, nodes)
	for i := range procs {
		procs[i] = exec.Command(exe, "-serve-manifest", path, "-serve-node", strconv.Itoa(i))
		procs[i].Stderr = os.Stderr
		if err := procs[i].Start(); err != nil {
			return err
		}
		go func(i int) { earlyExit <- fmt.Errorf("node %d exited: %v", i, procs[i].Wait()) }(i)
	}
	// Each monitor goroutine owns its Cmd's one allowed Wait; cleanup only
	// kills and then drains the monitors' exit notifications.
	exitsDrained := 0
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
			}
		}
		for ; exitsDrained < len(procs); exitsDrained++ {
			<-earlyExit
		}
	}()

	type outcome struct {
		res *machine.ClusterResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := machine.ClusterRun{
			Manifest: man,
			Config: machine.ClusterConfig{
				GuestContexts: guests,
				Scheme:        scheme,
				Placement:     place,
				LogEvents:     true,
			},
			Threads: lit.Threads,
			Mem:     lit.Mem,
		}.Run()
		done <- outcome{res, err}
	}()
	var res *machine.ClusterResult
	select {
	case o := <-done:
		if o.err != nil {
			return o.err
		}
		res = o.res
	case err := <-earlyExit:
		exitsDrained++
		// Nodes also exit right after a successful run's shutdown
		// broadcast, so give the run outcome a moment to win the race
		// before declaring the exit premature.
		select {
		case o := <-done:
			if o.err != nil {
				return o.err
			}
			res = o.res
		case <-time.After(2 * time.Second):
			return err
		}
	}
	scErr := machine.CheckSCFrom(lit.Mem, res.Events)
	var checkErr error
	if lit.Check != nil {
		checkErr = lit.Check(func(a uint32) uint32 { return res.Mem[a] }, res.FinalRegs)
	}

	// Compiled workloads are additionally checked against the trace model.
	var modelWant *wprog.Counts
	var modelDiffs []string
	modelCheck := ""
	if comp != nil {
		sch, err := machine.ParseScheme(scheme, mesh)
		if err != nil {
			return err
		}
		pol, err := machine.ParsePlacement(place, mesh.Cores())
		if err != nil {
			return err
		}
		model, err := comp.Predict(mesh, sch, pol, guests)
		if err != nil {
			return err
		}
		want := wprog.ModelCounts(model, sch)
		modelWant = &want
		modelDiffs = want.Diff(wprog.RuntimeCounts(&res.Result))
		switch {
		case len(modelDiffs) == 0:
			modelCheck = "exact"
		case guests > 0:
			// Guest evictions are schedule-dependent, so the model's LRU
			// eviction order need not match the runtime's queue order; the
			// comparison is logged, not enforced.
			modelCheck = "tolerance (guest evictions are schedule-dependent): " + strings.Join(modelDiffs, "; ")
		default:
			modelCheck = "MISMATCH: " + strings.Join(modelDiffs, "; ")
		}
	}

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		status := func(err error) string {
			if err != nil {
				return err.Error()
			}
			return "ok"
		}
		if err := enc.Encode(struct {
			Program      string                  `json:"program"`
			Scheme       string                  `json:"scheme"`
			Placement    string                  `json:"placement"`
			Nodes        int                     `json:"nodes"`
			Cores        int                     `json:"cores"`
			Threads      int                     `json:"threads"`
			Instructions int64                   `json:"instructions"`
			Migrations   int64                   `json:"migrations"`
			Evictions    int64                   `json:"evictions"`
			RemoteOps    int64                   `json:"remote_ops"`
			LocalOps     int64                   `json:"local_ops"`
			ContextFlits int64                   `json:"context_flits"`
			LeaseHits    int64                   `json:"lease_hits"`
			LeaseMisses  int64                   `json:"lease_misses"`
			LeaseInvals  int64                   `json:"lease_invals"`
			Overcommits  int64                   `json:"overcommits"`
			Events       int                     `json:"events"`
			SC           string                  `json:"sc"`
			Check        string                  `json:"check"`
			Model        *wprog.Counts           `json:"model,omitempty"`
			ModelCheck   string                  `json:"model_check,omitempty"`
			PerNode      []map[string]int64      `json:"per_node"`
			PerCore      []transport.CoreMetrics `json:"per_core"`
			Net          []transport.NetStats    `json:"net"`
			CoordNet     transport.NetStats      `json:"coord_net"`
		}{
			Program: lit.Name, Scheme: scheme, Placement: place,
			Nodes: nodes, Cores: mesh.Cores(), Threads: len(lit.Threads),
			Instructions: res.Instructions, Migrations: res.Migrations, Evictions: res.Evictions,
			RemoteOps: res.RemoteReads + res.RemoteWrites, LocalOps: res.LocalOps,
			ContextFlits: res.ContextFlits,
			LeaseHits:    res.LeaseHits, LeaseMisses: res.LeaseMisses, LeaseInvals: res.LeaseInvals,
			Overcommits: res.Overcommits,
			Events:      len(res.Events), SC: status(scErr), Check: status(checkErr),
			Model: modelWant, ModelCheck: modelCheck,
			PerNode: res.NodeCounters, PerCore: res.PerCore,
			Net: res.NodeNet, CoordNet: res.CoordNet,
		}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "cluster  : %d nodes, %v, program %s (%d threads), scheme %s, placement %s\n",
			nodes, mesh, lit.Name, len(lit.Threads), scheme, place)
		if comp != nil {
			fmt.Fprintf(stdout, "compiled : %d accesses over %d pages -> %d instructions\n",
				comp.Trace.Len(), len(comp.Pages), comp.Instructions())
		}
		fmt.Fprintf(stdout, "result   : instructions=%d migrations=%d evictions=%d remote=%d local=%d ctxflits=%d lease=%d/%d/%d overcommits=%d\n",
			res.Instructions, res.Migrations, res.Evictions,
			res.RemoteReads+res.RemoteWrites, res.LocalOps, res.ContextFlits,
			res.LeaseHits, res.LeaseMisses, res.LeaseInvals, res.Overcommits)
		if modelWant != nil {
			fmt.Fprintf(stdout, "model    : migrations=%d evictions=%d remote=%d local=%d ctxflits=%d lease=%d/%d/%d -> %s\n",
				modelWant.Migrations, modelWant.Evictions, modelWant.RemoteOps,
				modelWant.LocalOps, modelWant.ContextFlits,
				modelWant.LeaseHits, modelWant.LeaseMisses, modelWant.LeaseInvals, modelCheck)
		}
		for i, c := range res.NodeCounters {
			fmt.Fprintf(stdout, "node %-4d: instructions=%d migrations=%d evictions=%d\n",
				i, c["instructions"], c["migrations"], c["evictions"])
		}
		if statsOut {
			fmt.Fprint(stdout, stats.MetricsTable(res.PerCore).String())
			for i, s := range res.NodeNet {
				fmt.Fprintf(stdout, "wire %-4d: %s\n", i, stats.NetLine(s))
			}
			c := res.CoordNet
			fmt.Fprintf(stdout, "wire coord: sent %d msgs in %d batches (%.2f msgs/batch; injections coalesce per node)\n",
				c.MsgsSent, c.BatchesSent, c.MsgsPerBatch())
		}
		if scErr != nil {
			fmt.Fprintf(stdout, "SC check : FAILED: %v\n", scErr)
		} else {
			fmt.Fprintf(stdout, "SC check : OK (%d events)\n", len(res.Events))
		}
		if lit.Check != nil {
			if checkErr != nil {
				fmt.Fprintf(stdout, "litmus   : FAILED: %v\n", checkErr)
			} else {
				fmt.Fprintf(stdout, "litmus   : OK\n")
			}
		}
	}
	if scErr != nil {
		return scErr
	}
	if checkErr != nil {
		return checkErr
	}
	if comp != nil && guests == 0 && len(modelDiffs) != 0 {
		return fmt.Errorf("runtime counters diverged from the trace model (exact match required with -guests 0): %s",
			strings.Join(modelDiffs, "; "))
	}
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
