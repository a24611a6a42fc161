// Command em2serve is the open-loop job-serving front end: it injects
// jobs (litmus programs) into a live EM² machine or cluster at a seeded
// deterministic arrival rate, applies admission control against a bounded
// in-flight window, SC-checks every completed job, and emits a JSON SLO
// report (p50/p90/p99/p999 completion latency in machine cycles).
//
// Usage:
//
//	em2serve -jobs 64 -seed 7 -workload mix                 # in-process machine
//	em2serve -transport tcp -nodes 2 -jobs 64 -seed 7       # self-hosted TCP cluster
//	em2serve -transport tcp -manifest cluster.json ...      # external em2node processes
//	em2serve -trace arrivals.txt -max-inflight 4            # trace-driven arrivals
//
// The report is deterministic: the same seed, arrival process and
// workload produce a byte-identical report on the channel transport and
// on any TCP cluster partitioning of the same mesh (the cost model
// charges depend only on core geometry). -trace reads one absolute
// arrival time in cycles per line ('#' comments and blank lines skipped).
//
// Job count is unbounded: jobs run one at a time, each in the one 4 KiB
// region, and retirement is a cluster-wide barrier that empties every
// node of the job's memory and events (feeding the job's own SC check),
// so a long-running server's footprint stays at one job — the run fails
// loudly if the final drain finds anything left over. See DESIGN.md §7
// and the 2000-job soak procedure in README.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command with injectable argv and streams, so the CLI
// tests can pin flag handling and output without a subprocess.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("em2serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tr := fs.String("transport", "channel", "backend: channel (in-process) or tcp")
	nodes := fs.Int("nodes", 2, "tcp: self-host this many in-process nodes on loopback")
	manifest := fs.String("manifest", "", "tcp: run against externally started em2node processes on this manifest instead of self-hosting")
	cfg := serve.Config{Seed: 1, MaxInflight: 8, SampleEvery: 10000}
	cfg.RegisterFlags(fs)
	fs.Lookup("jobs").Usage += " (ignored with -trace)"
	fs.Lookup("sample-every").Usage += " (with -telemetry)"
	fs.IntVar(&cfg.Quantum, "quantum", 0, "instructions per scheduling slice (0 = runtime default)")
	trace := fs.String("trace", "", "trace-driven arrivals: file with one absolute arrival time (cycles) per line")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	telem := fs.String("telemetry", "", "stream line-protocol telemetry to this sink: a file path, '-' (stdout), udp:host:port, or mem:")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "em2serve:", err)
		return 1
	}

	if *telem != "" {
		sink, err := telemetry.Open(*telem, time.Second)
		if err != nil {
			return fail(err)
		}
		defer sink.Close()
		cfg.Sink = sink
	}
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			return fail(err)
		}
		cfg.Arrivals, err = serve.ParseTrace(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	}

	var be serve.Backend
	join := func() error { return nil } // self-hosted TCP nodes, if any
	switch *tr {
	case "channel":
		var err error
		if be, err = serve.NewLocalBackend(cfg); err != nil {
			return fail(err)
		}
	case "tcp":
		var man transport.Manifest
		var err error
		if *manifest != "" {
			man, err = transport.LoadManifest(*manifest)
		} else {
			man, join, err = machine.Loopback(*nodes, cfg.W, cfg.H)
		}
		if err != nil {
			return fail(err)
		}
		if be, err = serve.NewClusterBackend(cfg, man); err != nil {
			return fail(errors.Join(err, join()))
		}
	default:
		return fail(fmt.Errorf("unknown transport %q (channel or tcp)", *tr))
	}

	rep, err := serve.Run(cfg, be)
	be.Close()
	// A self-hosted node's failure fails the command even when the run
	// itself reported nothing.
	if err = errors.Join(err, join()); err != nil {
		return fail(err)
	}
	b, err := rep.JSON()
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "em2serve: wrote %s (%d jobs completed, %d rejected)\n", *out, rep.Completed, rep.Rejected)
	} else {
		stdout.Write(b)
	}
	return 0
}
