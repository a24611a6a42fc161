// Package serve is the open-loop job-serving front end for a live EM²
// machine or cluster: jobs (small litmus programs) arrive at a seeded
// deterministic rate, are admitted against a bounded in-flight window or
// rejected with a count, run on the machine through the job lifecycle
// (submit → ack → inject → halts → retire), and report per-job completion
// latency in machine cycles and interconnect messages as an SLO summary
// (p50/p90/p99/p999).
//
// Determinism contract: the same Config — seed, arrival process, workload,
// scheme, placement, mesh — produces a byte-identical Report whether the
// backend is the in-process channel transport or a TCP cluster, because
// the cost model charges depend only on core geometry and each thread's
// own decision stream, never on how cores are partitioned into node
// processes. The differential test in this package pins that guarantee.
//
// Every completed job is independently verified for sequential
// consistency. Jobs execute physically one at a time, each in the one
// 4 KiB region at RegionBytes, so job count is unbounded. A job's retire
// empties the machine — every slot, shard word, lease record and
// event-log entry — and returns the events for the job's own SC check
// (one machine.SCChecker per session, its scratch reused from job to
// job). The retire is what keeps a long-running server's footprint at
// one job instead of O(jobs); Run enforces it by failing if the final
// drain finds any stray events or leftover words.
package serve

import (
	"container/heap"
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Config describes one serving run. It deliberately carries nothing
// transport-specific: the backend (channel or TCP) is chosen by the
// caller, and the Report must not depend on the choice.
type Config struct {
	W, H      int    // mesh geometry (default 2×2)
	Scheme    string // decision scheme wire name (default always-migrate)
	Placement string // placement wire name (default striped:64)
	Quantum   int    // instructions per scheduling slice (0 = runtime default)

	Workload string  // job generator: sb | counter | rand-priv | mix (default mix)
	Jobs     int     // number of Poisson arrivals (default 32; ignored with Arrivals)
	Seed     int64   // seeds the arrival process and the workload generator
	MeanGap  float64 // mean Poisson interarrival gap in cycles (default 2000)
	// Arrivals, when non-nil, is an explicit trace of absolute arrival
	// times in cycles (non-decreasing) and overrides Jobs/MeanGap.
	Arrivals []uint64

	// MaxInflight bounds the number of virtually in-flight jobs; an arrival
	// finding the window full is rejected and counted. 0 = unbounded.
	MaxInflight int

	// Timeout guards each physical job execution and the final drain.
	Timeout time.Duration

	// Sink, with SampleEvery > 0, receives the run's telemetry stream: at
	// every SampleEvery virtual cycles the backend is sampled and encoded as
	// line-protocol points stamped with the virtual tick. Sampling happens
	// only at arrival-processing boundaries — the machine is physically
	// quiescent there — so the stream is deterministic: byte-identical
	// across backends for the same Config, and enabling it changes nothing
	// else about the run (the Report stays byte-identical with sampling on
	// or off).
	Sink telemetry.Sink
	// SampleEvery is the telemetry sampling period in virtual cycles.
	// 0 disables sampling even with a Sink installed.
	SampleEvery uint64
	// Observe, when non-nil, receives each telemetry sample (and its tick)
	// before encoding — em2soak's invariant-checker hook. The machine is
	// physically quiescent at every observation: all physically-run jobs
	// are retired, so guest and footprint gauges must read zero.
	Observe func(s *transport.Sample, cycle uint64)
}

func (c Config) withDefaults() Config {
	if c.W == 0 && c.H == 0 {
		c.W, c.H = 2, 2
	}
	// Scheme, placement and timeout defaults are the machine's own.
	d := machine.ClusterConfig{Scheme: c.Scheme, Placement: c.Placement, Timeout: c.Timeout}.WithDefaults()
	c.Scheme, c.Placement, c.Timeout = d.Scheme, d.Placement, d.Timeout
	if c.Workload == "" {
		c.Workload = "mix"
	}
	if c.Jobs == 0 {
		c.Jobs = 32
	}
	if c.MeanGap == 0 {
		c.MeanGap = 2000
	}
	return c
}

// RegisterFlags declares the flags every serving CLI shares on fs, bound to
// c's fields. The defaults are c's current values over withDefaults, so a
// CLI states only where it differs.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	*c = c.withDefaults()
	fs.IntVar(&c.W, "w", c.W, "mesh width")
	fs.IntVar(&c.H, "h", c.H, "mesh height")
	fs.StringVar(&c.Scheme, "scheme", c.Scheme, "decision scheme: "+strings.Join(machine.SchemeNames(), ", "))
	fs.StringVar(&c.Placement, "placement", c.Placement, "placement: "+strings.Join(machine.PlacementNames(), ", "))
	fs.StringVar(&c.Workload, "workload", c.Workload, "job generator: "+strings.Join(Workloads(), ", "))
	fs.IntVar(&c.Jobs, "jobs", c.Jobs, "number of Poisson arrivals")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "seed for the arrival process and workload generator")
	fs.Float64Var(&c.MeanGap, "mean-gap", c.MeanGap, "mean Poisson interarrival gap in cycles")
	fs.IntVar(&c.MaxInflight, "max-inflight", c.MaxInflight, "admission window: reject arrivals beyond this many in-flight jobs (0 = unbounded)")
	fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "per-job and drain guard")
	fs.Uint64Var(&c.SampleEvery, "sample-every", c.SampleEvery, "telemetry sampling period in virtual cycles")
}

// Report is the run's SLO summary. Its JSON form is the determinism
// surface: every field must be identical across backends for the same
// Config, so it contains no transport- or partitioning-dependent data
// (no node counts, no wire statistics, no event logs).
type Report struct {
	Version     string `json:"version"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Scheme      string `json:"scheme"`
	Placement   string `json:"placement"`
	MeshW       int    `json:"mesh_w"`
	MeshH       int    `json:"mesh_h"`
	MaxInflight int    `json:"max_inflight"`

	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	// SCChecked counts the completed jobs whose execution passed an
	// independent per-job sequential-consistency check; a run only returns
	// a report when it equals Completed.
	SCChecked int `json:"sc_checked"`

	// MakespanCycles is the latest virtual completion time: the open-loop
	// clock at which the last admitted job finished.
	MakespanCycles uint64 `json:"makespan_cycles"`

	LatencyCycles stats.Summary `json:"latency_cycles"`
	MsgsPerJob    stats.Summary `json:"msgs_per_job"`

	// Counters are the machine's aggregate runtime counters over the whole
	// run (instructions, migrations, remote ops, context flits, …) —
	// identical across backends because every count is attributed to cores,
	// not nodes.
	Counters map[string]int64 `json:"counters"`
}

// JSON renders the report in its canonical byte form: indented, keys in
// struct order, trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// completionHeap is a min-heap of virtual completion times; its length is
// the number of virtually in-flight jobs.
type completionHeap []uint64

func (h completionHeap) Len() int            { return len(h) }
func (h completionHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// sampler paces the run's telemetry on the virtual clock. Jobs execute
// physically one at a time, so the machine is quiescent at every
// arrival-processing boundary; emitThrough is called there to flush every
// pending tick up to the boundary's virtual time. A nil sampler (no sink
// configured) is valid and does nothing.
type sampler struct {
	sink    telemetry.Sink
	be      Backend
	observe func(*transport.Sample, uint64)
	every   uint64
	next    uint64
	buf     []byte
}

func newSampler(cfg Config, be Backend) *sampler {
	if cfg.SampleEvery == 0 || (cfg.Sink == nil && cfg.Observe == nil) {
		return nil
	}
	return &sampler{
		sink:    cfg.Sink,
		be:      be,
		observe: cfg.Observe,
		every:   cfg.SampleEvery,
		next:    cfg.SampleEvery,
	}
}

// emitThrough emits every pending tick with virtual time <= t: one
// backend sample rendered as line-protocol core/machine points plus one
// "serve" point with the job gauges, all stamped with the tick's cycle.
// The serve gauges are computed on the virtual clock — a job is in flight
// at tick T iff it was admitted before T and its virtual completion is
// after T — so the stream replays what a concurrent server would have
// reported, deterministically.
func (sm *sampler) emitThrough(t uint64, submitted, completed, rejected int, inflight *completionHeap) error {
	if sm == nil {
		return nil
	}
	for ; sm.next <= t; sm.next += sm.every {
		s, err := sm.be.Sample()
		if err != nil {
			return fmt.Errorf("serve: telemetry sample at cycle %d: %v", sm.next, err)
		}
		if sm.observe != nil {
			sm.observe(&s, sm.next)
		}
		if sm.sink == nil {
			continue
		}
		live := 0
		for _, fin := range *inflight {
			if fin > sm.next {
				live++
			}
		}
		sm.buf = telemetry.AppendSamplePoints(sm.buf[:0], &s, sm.next)
		p := telemetry.Point{Name: "serve", Cycle: sm.next, Fields: []telemetry.Field{
			telemetry.Int("submitted", int64(submitted)),
			telemetry.Int("completed", int64(completed)),
			telemetry.Int("rejected", int64(rejected)),
			telemetry.Int("inflight", int64(live)),
		}}
		sm.buf = telemetry.AppendPoint(sm.buf, &p)
		if err := sm.sink.Write(sm.buf); err != nil {
			return fmt.Errorf("serve: telemetry sink at cycle %d: %v", sm.next, err)
		}
	}
	return nil
}

// Run drives one open-loop serving run against the backend: generate the
// arrival sequence, admit or reject each job against the in-flight window,
// execute admitted jobs on the machine, then drain, SC-check every
// completed job, and summarize.
//
// Physically the jobs execute one at a time; the open-loop clock is
// virtual. A job's latency is the §3 cost-model cycle count accumulated by
// its slowest thread — a quantity independent of what else the host is
// running — so its virtual completion is arrival + latency, and the
// admission window replays exactly as a concurrent server would schedule
// it, deterministically.
func Run(cfg Config, be Backend) (*Report, error) {
	cfg = cfg.withDefaults()
	arrivals := cfg.Arrivals
	if arrivals == nil {
		arrivals = PoissonArrivals(cfg.Seed, cfg.Jobs, cfg.MeanGap)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			return nil, fmt.Errorf("serve: arrival trace goes backwards at index %d (%d after %d)",
				i, arrivals[i], arrivals[i-1])
		}
	}

	var (
		inflight   = &completionHeap{}
		sc         machine.SCChecker
		latencies  []float64
		msgsPerJob []float64
		completed  int
		checked    int
		rejected   int
		makespan   uint64
	)
	samp := newSampler(cfg, be)
	for i, t := range arrivals {
		// Telemetry ticks due before this arrival fire first, against the
		// quiescent machine state left by the previous boundary.
		if err := samp.emitThrough(t, i, completed, rejected, inflight); err != nil {
			return nil, err
		}
		for inflight.Len() > 0 && (*inflight)[0] <= t {
			heap.Pop(inflight)
		}
		if cfg.MaxInflight > 0 && inflight.Len() >= cfg.MaxInflight {
			rejected++
			continue
		}
		job, err := buildJob(cfg, i)
		if err != nil {
			return nil, err
		}
		halts, err := be.RunJob(job, cfg.Timeout)
		if err != nil {
			return nil, fmt.Errorf("serve: job %d (%s): %v", i, job.Name, err)
		}
		var lat uint64
		var msgs uint64
		for _, h := range halts {
			if h.Cycles > lat {
				lat = h.Cycles // the job completes when its slowest thread halts
			}
			msgs += uint64(h.Msgs)
		}
		latencies = append(latencies, float64(lat))
		msgsPerJob = append(msgsPerJob, float64(msgs))
		fin := t + lat
		if fin > makespan {
			makespan = fin
		}
		heap.Push(inflight, fin)
		completed++
		// Retire now: the machine holds only this job, so the returned
		// events are exactly its own and the SC check happens here, and the
		// retire empties the machine for the next one.
		events, err := be.Retire(job, cfg.Timeout)
		if err != nil {
			return nil, fmt.Errorf("serve: job %d (%s) retirement: %v", i, job.Name, err)
		}
		if err := sc.Check(job.Mem, events); err != nil {
			return nil, fmt.Errorf("serve: job %d failed its SC check: %v", i, err)
		}
		checked++
	}

	// Flush the tail of the stream: ticks between the last arrival and the
	// latest virtual completion, ending with the fully-drained gauges.
	if err := samp.emitThrough(makespan, len(arrivals), completed, rejected, inflight); err != nil {
		return nil, err
	}

	dr, err := be.Drain(cfg.Timeout)
	if err != nil {
		return nil, err
	}
	// The boundedness invariant: every job was retired, and a retire
	// empties the machine, so the drained machine must hold no events and
	// no words. A violation is a retire leak — exactly the O(jobs) growth
	// retirement exists to prevent — and fails the run loudly.
	if len(dr.Events) > 0 || dr.MemWords != 0 {
		return nil, fmt.Errorf("serve: drain found %d stray events and %d leftover words after %d retired jobs (retire leak)",
			len(dr.Events), dr.MemWords, completed)
	}

	return &Report{
		Version:        "em2serve/v1",
		Workload:       cfg.Workload,
		Seed:           cfg.Seed,
		Scheme:         cfg.Scheme,
		Placement:      cfg.Placement,
		MeshW:          cfg.W,
		MeshH:          cfg.H,
		MaxInflight:    cfg.MaxInflight,
		Submitted:      len(arrivals),
		Completed:      completed,
		Rejected:       rejected,
		SCChecked:      checked,
		MakespanCycles: makespan,
		LatencyCycles:  stats.Summarize(latencies),
		MsgsPerJob:     stats.Summarize(msgsPerJob),
		Counters:       dr.Counters,
	}, nil
}
