// Command em2soak is the telemetry-driven soak harness: it runs a seeded
// open-loop serving mix on a live EM² machine (and, by default, the same
// mix again on a real self-hosted TCP cluster), streams periodic metrics
// as virtual-time line-protocol telemetry, and continuously asserts the
// machine's runtime invariants over the stream:
//
//   - guest-pool drift: guest gauges never go negative and read zero at
//     every quiescent sampling point;
//   - monotone counters: no per-core counter moves backward between
//     samples, and no sample misattributes a core;
//   - bounded memory: the shard footprint (words, events) is zero at every
//     quiescent point and never exceeds the admission window's bound;
//   - SC spot checks: every completed job passed its independent per-job
//     sequential-consistency check (serve.Run enforces this; the report
//     carries the count);
//   - transport agreement: with -transport both, the telemetry streams and
//     SLO reports from the channel machine and the TCP cluster must be
//     byte-identical.
//
// The run ends with an em2soak/v1 JSON findings report; the exit code is
// nonzero iff any invariant failed. -telemetry additionally copies the
// channel stream to a sink (file, '-', udp:host:port) for live dashboards.
//
// Usage:
//
//	em2soak -jobs 256 -seed 7                      # channel vs 2-node TCP
//	em2soak -transport channel -jobs 2000          # long single-machine soak
//	em2soak -transport tcp -nodes 4 -w 4 -h 2      # cluster only
package main

import (
	"encoding/json"
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

// report is the em2soak/v1 findings document. Everything in it except
// the violation list is deterministic for a fixed seed and flag set.
type report struct {
	Version     string `json:"version"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Jobs        int    `json:"jobs"`
	MeshW       int    `json:"mesh_w"`
	MeshH       int    `json:"mesh_h"`
	SampleEvery uint64 `json:"sample_every"`
	Transports  string `json:"transports"`

	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	SCChecked int `json:"sc_checked"`

	Samples     int `json:"samples"`
	StreamBytes int `json:"stream_bytes"`

	// StreamsIdentical and ReportsIdentical are the cross-transport
	// byte-comparisons; both are true for single-transport runs (nothing to
	// disagree with).
	StreamsIdentical bool `json:"streams_identical"`
	ReportsIdentical bool `json:"reports_identical"`

	Violations []telemetry.Violation `json:"violations"`
	OK         bool                  `json:"ok"`
}

// soakOutcome is one transport's run: its serve report bytes, captured
// telemetry stream, and checker state.
type soakOutcome struct {
	reportJSON []byte
	stream     []byte
	checker    *telemetry.Checker
	rep        *serve.Report
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("em2soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tr := fs.String("transport", "both", "machines to soak: channel, tcp, or both (cross-checked)")
	nodes := fs.Int("nodes", 2, "tcp: self-host this many in-process nodes on loopback")
	cfg := serve.Config{Jobs: 256, Seed: 1, MaxInflight: 8, Timeout: 120 * time.Second, SampleEvery: 5000}
	cfg.RegisterFlags(fs)
	telem := fs.String("telemetry", "", "also copy the channel stream to this sink: a file path, '-' (stdout), or udp:host:port")
	out := fs.String("o", "", "write the findings report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "em2soak:", err)
		return 1
	}
	if *tr != "channel" && *tr != "tcp" && *tr != "both" {
		return fail(fmt.Errorf("unknown transport %q (channel, tcp, or both)", *tr))
	}
	if cfg.SampleEvery == 0 {
		return fail(fmt.Errorf("-sample-every must be positive: the soak's invariants live on the sample stream"))
	}

	var extra telemetry.Sink
	if *telem != "" {
		var err error
		if extra, err = telemetry.Open(*telem, time.Second); err != nil {
			return fail(err)
		}
		defer extra.Close()
	}

	var outcomes []*soakOutcome
	if *tr == "channel" || *tr == "both" {
		be, err := serve.NewLocalBackend(cfg)
		if err != nil {
			return fail(err)
		}
		o, err := soak(cfg, be, extra)
		if err != nil {
			return fail(fmt.Errorf("channel: %v", err))
		}
		outcomes = append(outcomes, o)
	}
	if *tr == "tcp" || *tr == "both" {
		man, join, err := machine.Loopback(*nodes, cfg.W, cfg.H)
		if err != nil {
			return fail(err)
		}
		be, err := serve.NewClusterBackend(cfg, man)
		if err != nil {
			return fail(errors.Join(err, join()))
		}
		o, err := soak(cfg, be, nil)
		// A self-hosted node's failure fails the soak even when the run
		// itself reported nothing.
		if err = errors.Join(err, join()); err != nil {
			return fail(fmt.Errorf("tcp: %v", err))
		}
		outcomes = append(outcomes, o)
	}

	first := outcomes[0]
	rep := report{
		Version:     "em2soak/v1",
		Workload:    cfg.Workload,
		Seed:        cfg.Seed,
		Jobs:        cfg.Jobs,
		MeshW:       cfg.W,
		MeshH:       cfg.H,
		SampleEvery: cfg.SampleEvery,
		Transports:  *tr,

		Completed: first.rep.Completed,
		Rejected:  first.rep.Rejected,
		SCChecked: first.rep.SCChecked,

		Samples:     first.checker.Checked(),
		StreamBytes: len(first.stream),

		StreamsIdentical: true,
		ReportsIdentical: true,
		Violations:       []telemetry.Violation{},
	}
	for _, o := range outcomes {
		rep.Violations = append(rep.Violations, o.checker.Violations()...)
	}
	if len(outcomes) == 2 {
		if string(outcomes[0].stream) != string(outcomes[1].stream) {
			rep.StreamsIdentical = false
			rep.Violations = append(rep.Violations, telemetry.Violation{
				Kind:   "stream-divergence",
				Detail: fmt.Sprintf("channel stream (%d bytes) and tcp stream (%d bytes) differ at byte %d", len(outcomes[0].stream), len(outcomes[1].stream), firstDiff(outcomes[0].stream, outcomes[1].stream)),
			})
		}
		if string(outcomes[0].reportJSON) != string(outcomes[1].reportJSON) {
			rep.ReportsIdentical = false
			rep.Violations = append(rep.Violations, telemetry.Violation{
				Kind:   "report-divergence",
				Detail: "channel and tcp SLO reports differ",
			})
		}
	}
	rep.OK = len(rep.Violations) == 0

	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	b = append(b, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "em2soak: wrote %s (%d samples, %d violations)\n", *out, rep.Samples, len(rep.Violations))
	} else {
		stdout.Write(b)
	}
	if !rep.OK {
		fmt.Fprintf(stderr, "em2soak: FAILED with %d violations\n", len(rep.Violations))
		return 1
	}
	return 0
}

// soak runs one serving mix on be with the stream captured in memory and
// every sample fed through an invariant checker, and closes be. extra,
// when non-nil, receives a copy of the stream.
func soak(cfg serve.Config, be serve.Backend, extra telemetry.Sink) (*soakOutcome, error) {
	mem := &telemetry.MemorySink{}
	checker := &telemetry.Checker{
		// The machine holds at most one job, in one region of RegionBytes.
		// Sampling points are quiescent so the gauge should read zero; the
		// bound catches a leak even if the quiescent contract regresses.
		MaxWords: serve.RegionBytes / 4,
	}
	cfg.Sink = mem
	if extra != nil {
		cfg.Sink = teeSink{mem, extra}
	}
	cfg.Observe = func(s *transport.Sample, cycle uint64) {
		// Serve samples only at arrival-processing boundaries, where the
		// machine is physically quiescent — so the quiescent-zero checks are
		// armed on every sample.
		checker.Check(s, true)
	}
	rep, err := serve.Run(cfg, be)
	be.Close()
	if err != nil {
		return nil, err
	}
	rj, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	return &soakOutcome{reportJSON: rj, stream: mem.Bytes(), checker: checker, rep: rep}, nil
}

// teeSink duplicates the stream to two sinks; the first (the in-memory
// capture) is authoritative for errors, the second is advisory.
type teeSink struct {
	primary, secondary telemetry.Sink
}

func (t teeSink) Write(lines []byte) error {
	t.secondary.Write(lines) //em2:errsink-ok: the secondary sink (live dashboard copy) is advisory; its loss must not fail the soak
	return t.primary.Write(lines)
}

func (t teeSink) Close() error { return t.primary.Close() }

// firstDiff returns the index of the first differing byte of a and b.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
