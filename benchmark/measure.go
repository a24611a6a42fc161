package main

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// windowChunks is how many equal stretches a batch workload's timed window
// is cut into (a serve workload's chunks are its sessions). Every host-time
// metric is computed per chunk and reported as the median over chunks: the
// box this runs on has slow episodes lasting a second or so, and a median
// of ten ignores up to four of them where a mean over the window absorbs
// them all.
const windowChunks = 10

// chunk is one stretch of the timed window.
type chunk struct {
	ops           int // completed
	wallNs, cpuNs int64
	opNs          []int64
}

// window accumulates the timed part of a run: whole ops for the batch
// workloads, serve.Run calls for the serve workloads (whose ops are jobs).
type window struct {
	attempted, failed int
	ops               int // completed ops: the divisor of every per-op figure
	wallNs            int64
	mallocs, bytes    uint64
	chunks            []chunk
	firstErr          error
}

func (w *window) fail(n int, err error) {
	w.failed += n
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// overChunks is the median over the chunks that completed any op of f.
func (w *window) overChunks(f func(c *chunk) float64) float64 {
	var xs []float64
	for i := range w.chunks {
		if w.chunks[i].ops > 0 {
			xs = append(xs, f(&w.chunks[i]))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func (w *window) opsPerSecond() float64 {
	return w.overChunks(func(c *chunk) float64 { return float64(c.ops) / (float64(c.wallNs) / 1e9) })
}

func (w *window) cpuNsPerOp() float64 {
	return w.overChunks(func(c *chunk) float64 { return float64(c.cpuNs) / float64(c.ops) })
}

func (w *window) opNsPercentile(q float64) float64 {
	return w.overChunks(func(c *chunk) float64 { return percentile(c.opNs, q) })
}

var errRejected = errors.New("jobs were rejected by admission control or missed their SC check")

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter brackets one timed stretch: wall, CPU and allocation deltas.
type meter struct {
	wall time.Time
	cpu  int64
	ms   runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuNs()
	m.wall = time.Now()
	return m
}

func (m *meter) stop() (wallNs, cpu int64, mallocs, bytes uint64) {
	wallNs = int64(time.Since(m.wall))
	cpu = cpuNs() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wallNs, cpu, ms.Mallocs - m.ms.Mallocs, ms.TotalAlloc - m.ms.TotalAlloc
}

// runBatchFor runs whole ops, one in flight, until `seconds` have passed
// and at least minOps were attempted. Each op is timed on its own; a failed
// op counts but does not stop the loop.
func runBatchFor(seconds float64, minOps int, op func() error) *window {
	w := &window{}
	m := startMeter()
	cur := chunk{}
	chunkWall, chunkCPU := m.wall, m.cpu
	for {
		t0 := time.Now()
		err := op()
		now := time.Now()
		cur.opNs = append(cur.opNs, int64(now.Sub(t0)))
		w.attempted++
		if err != nil {
			w.fail(1, err)
		} else {
			cur.ops++
			w.ops++
		}
		elapsed := now.Sub(m.wall).Seconds()
		if done := elapsed >= seconds && w.attempted >= minOps; done || elapsed >= float64(len(w.chunks)+1)*seconds/windowChunks {
			cpu := cpuNs()
			cur.wallNs, cur.cpuNs = int64(now.Sub(chunkWall)), cpu-chunkCPU
			w.chunks = append(w.chunks, cur)
			cur, chunkWall, chunkCPU = chunk{}, now, cpu
			if done {
				break
			}
		}
	}
	w.wallNs, _, w.mallocs, w.bytes = m.stop()
	return w
}

// runServeFor runs whole sessions until the summed serve.Run time reaches
// `seconds`, or `sessions` of them when seconds is 0 (at least one either
// way). The ops are the sessions' jobs and each session is one chunk; the
// time between sessions (backend tear-down and bring-up) is outside the
// window and reported as serve.bringup_ms.
func runServeFor(seconds float64, sessions int, spec serveSpec, check func(*session) error) *window {
	w := &window{}
	for n := 1; ; n++ {
		s, err := runSession(spec, nil)
		if err == nil {
			err = check(s)
		}
		if err != nil {
			// A session that broke or diverged delivers nothing a user
			// could trust: all of its jobs count as failed. Bring-up
			// errors are failed ops too, and never retried.
			w.attempted += spec.jobs
			w.fail(spec.jobs, err)
			break
		}
		w.attempted += s.submitted
		w.ops += s.completed
		if bad := s.rejected + s.completed - s.scChecked; bad > 0 {
			w.fail(bad, errRejected)
		}
		w.wallNs += s.runNs
		w.mallocs += s.mallocs
		w.bytes += s.bytes
		w.chunks = append(w.chunks, chunk{ops: s.completed, wallNs: s.runNs, cpuNs: s.cpuNs, opNs: s.jobNs()})
		if n >= sessions && float64(w.wallNs)/1e9 >= seconds {
			break
		}
	}
	return w
}

// percentile is the nearest-rank q-quantile of xs (0 < q <= 1).
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return float64(s[max(0, int(math.Ceil(q*float64(len(s))))-1)])
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// medianOf runs f n times and returns the median of its results.
func medianOf(n int, f func() (float64, error)) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		v, err := f()
		if err != nil {
			return 0, err
		}
		xs[i] = v
	}
	return median(xs), nil
}

// perCallNs is the mean cost of one call of f over n calls.
func perCallNs(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}
