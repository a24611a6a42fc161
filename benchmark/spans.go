package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names one layer boundary the traced pass brackets. The coarse
// kinds (one per op or per job) are always timed; the leaf kinds fire
// hundreds of thousands of times per op, so only every leafPeriod-th call
// reads the clock and the rest are counted (see recorder.enter).
type spanKind uint8

const (
	spOp spanKind = iota
	spNew
	spPreload
	spStart
	spRun
	spStop
	spCollect
	spCheck
	spManifest
	spClusterRun
	spJoin
	spBringup
	spServeRun
	spRunJob
	spRetire
	spSample
	spDrain
	spSinkWrite
	spTouch // firstLeaf: kinds from here on are sampled
	spDecide
	spObserve
	spStateAppend
	spStateSet
	spSendMig
	spSendEvict
	spFlush
	spRemote
	spShard
	spLeaseUpdate
	spCalib
	numSpanKinds

	firstLeaf = spTouch
)

var spanNames = [numSpanKinds]string{
	spOp: "op", spNew: "machine.new", spPreload: "machine.preload", spStart: "machine.start",
	spRun: "machine.run", spStop: "machine.stop", spCollect: "machine.collect", spCheck: "check",
	spManifest: "transport.manifest", spClusterRun: "machine.cluster_run", spJoin: "machine.join_nodes",
	spBringup: "serve.bringup", spServeRun: "serve.run", spRunJob: "serve.runjob", spRetire: "serve.retire",
	spSample: "telemetry.sample", spDrain: "serve.drain", spSinkWrite: "telemetry.sink_write",
	spTouch: "placement.touch", spDecide: "core.decide", spObserve: "core.observe",
	spStateAppend: "core.state_append", spStateSet: "core.state_set",
	spSendMig: "transport.send_migration", spSendEvict: "transport.send_eviction",
	spFlush: "transport.flush", spRemote: "transport.remote", spShard: "machine.shard",
	spLeaseUpdate: "transport.lease_update", spCalib: "trace.calibration",
}

// leafPeriod is prime so the sampled calls do not lock onto the kernels'
// own periods (17 memory operations per hop iteration, 6 per ocean stencil).
const leafPeriod = 7

// period is how often a call of kind k reads the clock. The shard handler
// runs inside Local.Remote and the lease write-updates inside the shard
// handler, one call each per outer call; sampling them on the same period
// would time exactly the inner calls of the timed outer ones, and every
// timed outer span would contain a whole inner bracket. Distinct primes
// keep the three independent, so bracketing costs average out as totalNs
// assumes.
func period(k spanKind) int64 {
	switch {
	case k < firstLeaf:
		return 1
	case k == spShard:
		return 11
	case k == spLeaseUpdate:
		return 13
	}
	return leafPeriod
}

// maxKeptSpans caps the spans retained for the Chrome trace of the first
// traced op; aggregates are kept for every call regardless.
const maxKeptSpans = 200_000

type span struct {
	kind       spanKind
	op         int32
	parent     int32
	start, end int64 // ns since recorder.base
}

type kindAgg struct {
	calls atomic.Int64 // every call
	timed atomic.Int64 // calls that read the clock
	ns    atomic.Int64 // summed duration of the timed calls
}

// recorder is the in-memory span store of one traced pass. Wrappers call
// enter/leave from whichever goroutine the program runs them on, so the
// counters are atomic; with one P nothing overlaps and the numbers add up.
type recorder struct {
	base  time.Time
	agg   [numSpanKinds]kindAgg
	op    atomic.Int32
	keep  atomic.Bool
	next  atomic.Int64
	spans []span

	// Clock calibration (ns per bracketed call), measured by calibrate on
	// an empty body: what a timed span records for doing nothing, what a
	// timed bracket adds to its caller, and what an untimed (counted-only)
	// bracket adds.
	insideNs, pairNs, untimedNs float64
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now(), spans: make([]span, maxKeptSpans)}
	r.calibrate()
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// enter counts one call of kind k and returns its start time, or -1 when
// this call is not one of the sampled ones.
func (r *recorder) enter(k spanKind) int64 {
	c := r.agg[k].calls.Add(1)
	if c%period(k) != 0 {
		return -1
	}
	return r.now()
}

func (r *recorder) leave(k spanKind, start int64) {
	if start < 0 {
		return
	}
	end := r.now()
	r.agg[k].timed.Add(1)
	r.agg[k].ns.Add(end - start)
	if r.keep.Load() {
		if i := r.next.Add(1) - 1; i < int64(len(r.spans)) {
			r.spans[i] = span{kind: k, op: r.op.Load(), parent: -1, start: start, end: end}
		}
	}
}

func (r *recorder) calibrate() {
	const n = 200_000
	loop := func() float64 {
		t0 := r.now()
		for i := 0; i < n; i++ {
			r.leave(spCalib, r.enter(spCalib))
		}
		return float64(r.now()-t0) / n
	}
	mixed := loop() // one timed bracket in leafPeriod, the rest counted only
	a := &r.agg[spCalib]
	r.insideNs = float64(a.ns.Load()) / float64(a.timed.Load())
	// A timed bracket is two clock reads; an untimed one is a counter
	// increment. Separate them with a second loop in which every call is
	// timed (a coarse kind), then solve the mix.
	t0 := r.now()
	for i := 0; i < n; i++ {
		r.leave(spOp, r.enter(spOp))
	}
	r.pairNs = float64(r.now()-t0) / n
	r.untimedNs = (mixed*leafPeriod - r.pairNs) / (leafPeriod - 1)
	if r.untimedNs < 0 {
		r.untimedNs = 0
	}
	r.agg[spOp] = kindAgg{}
	r.agg[spCalib] = kindAgg{}
}

func (r *recorder) calls(k spanKind) float64 { return float64(r.agg[k].calls.Load()) }

// meanNs is the mean duration of one call of kind k with the clock's own
// share removed.
func (r *recorder) meanNs(k spanKind) float64 {
	a := &r.agg[k]
	if a.timed.Load() == 0 {
		return 0
	}
	return max(0, float64(a.ns.Load())/float64(a.timed.Load())-r.insideNs)
}

// totalNs is what kind k cost its caller over the pass: the calls
// themselves (mean × calls) — the bracketing overhead is returned
// separately so self times can subtract it.
func (r *recorder) totalNs(k spanKind) (work, overhead float64) {
	a := &r.agg[k]
	calls, timed := float64(a.calls.Load()), float64(a.timed.Load())
	return r.meanNs(k) * calls, timed*r.pairNs + (calls-timed)*r.untimedNs
}

// resolveParents assigns each kept span the innermost kept span that
// contains it. With one P the program's layers nest in real time, so
// containment on the single timeline is the causal parent.
func resolveParents(spans []span) {
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		return x.end > y.end
	})
	var stack []int32
	for _, i := range order {
		for len(stack) > 0 && spans[stack[len(stack)-1]].end < spans[i].end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[i].parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// writeChromeTrace writes the kept spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto).
func (r *recorder) writeChromeTrace(path string) error {
	n := min(r.next.Load(), int64(len(r.spans)))
	spans := r.spans[:n]
	resolveParents(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: spanNames[s.kind], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": int(s.parent), "op": int(s.op)},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
