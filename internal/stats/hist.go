// Package stats provides the measurement plumbing shared by every simulator
// in this repository: integer histograms (the run-length histogram of the
// paper's Figure 2 is one), named counters, summary statistics, and plain
// text/CSV table rendering for the figure-regeneration harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Hist is a histogram over small non-negative integer values (e.g. run
// lengths, hop counts, stack depths). Values at or above the overflow bound
// are accumulated in a single overflow bin, mirroring the "58+" tail of the
// paper's Figure 2. The zero value is unusable; construct with NewHist.
type Hist struct {
	bins     []int64 // bins[i] = count of value i, i < overflow
	overflow int64   // count of values >= len(bins)
	total    int64   // number of Add calls
	sum      int64   // sum of added values (exact, including overflowed)
	max      int     // largest value seen
}

// NewHist returns a histogram with direct bins for values 0..bound-1 and an
// overflow bin for everything at or above bound.
func NewHist(bound int) *Hist {
	if bound <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram bound %d", bound))
	}
	return &Hist{bins: make([]int64, bound)}
}

// Add records one observation of v. Negative values panic: every quantity
// histogrammed in this repository is a count.
func (h *Hist) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram value %d", v))
	}
	if v < len(h.bins) {
		h.bins[v]++
	} else {
		h.overflow++
	}
	h.total++
	h.sum += int64(v)
	if v > h.max {
		h.max = v
	}
}

// AddN records n observations of v at once, in O(1): bin, total, sum and
// max move by arithmetic rather than n repeated Adds. Equivalent to calling
// Add(v) n times (property-tested).
//
//em2:reference-only the histogram tests check it equals n calls of Add
func (h *Hist) AddN(v int, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("stats: negative histogram count %d", n))
	}
	if n == 0 {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram value %d", v))
	}
	if v < len(h.bins) {
		h.bins[v] += n
	} else {
		h.overflow += n
	}
	h.total += n
	h.sum += int64(v) * n
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations equal to v, or the overflow count
// if v is at or beyond the direct-bin bound.
func (h *Hist) Count(v int) int64 {
	if v < 0 {
		return 0
	}
	if v < len(h.bins) {
		return h.bins[v]
	}
	return h.overflow
}

// Overflow returns the count of observations at or beyond the bin bound.
func (h *Hist) Overflow() int64 { return h.overflow }

// Total returns the number of observations.
//
//em2:reference-only the histogram and sim tests read counts through it
func (h *Hist) Total() int64 { return h.total }

// Sum returns the exact sum of all observed values.
func (h *Hist) Sum() int64 { return h.sum }

// Max returns the largest observed value (0 if empty).
//
//em2:reference-only the histogram tests read the maximum through it
func (h *Hist) Max() int { return h.max }

// Bound returns the direct-bin bound passed to NewHist.
func (h *Hist) Bound() int { return len(h.bins) }

// Mean returns the average observed value, or 0 for an empty histogram.
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Fraction returns the share of observations equal to v, in [0,1].
//
//em2:reference-only the histogram tests check shares through it
func (h *Hist) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// CumFraction returns the share of observations with value <= v. Values in
// the overflow bin are counted only when v >= Bound().
//
//em2:reference-only the histogram tests check cumulative shares through it
func (h *Hist) CumFraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var c int64
	for i := 0; i <= v && i < len(h.bins); i++ {
		c += h.bins[i]
	}
	if v >= len(h.bins) {
		c += h.overflow
	}
	return float64(c) / float64(h.total)
}

// WeightedFraction returns the share of total mass (sum of value·count)
// contributed by observations equal to v, the quantity plotted on Figure 2's
// y-axis ("# of memory accesses contributing to the run length").
//
//em2:reference-only the histogram tests check Figure 2 shares through it
func (h *Hist) WeightedFraction(v int) float64 {
	if h.sum == 0 {
		return 0
	}
	return float64(int64(v)*h.Count(v)) / float64(h.sum)
}

// Merge adds every observation of other into h. The two histograms must have
// the same bound.
//
//em2:reference-only the histogram tests check merging against one histogram
func (h *Hist) Merge(other *Hist) {
	if other.Bound() != h.Bound() {
		panic(fmt.Sprintf("stats: merging histograms with bounds %d and %d", h.Bound(), other.Bound()))
	}
	for i, c := range other.bins {
		h.bins[i] += c
	}
	h.overflow += other.overflow
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Bins returns a copy of the direct bins (index = value).
//
//em2:reference-only the histogram and engine tests read bins through it
func (h *Hist) Bins() []int64 {
	out := make([]int64, len(h.bins))
	copy(out, h.bins)
	return out
}

// String renders a compact summary.
func (h *Hist) String() string {
	return fmt.Sprintf("hist{n=%d mean=%.2f max=%d overflow=%d}", h.total, h.Mean(), h.max, h.overflow)
}

// Render draws a text bar chart of the histogram, one row per non-empty bin,
// scaled so the largest bin occupies width characters. It is the renderer
// behind `cmd/figures fig2`.
func (h *Hist) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	var peak int64
	for _, c := range h.bins {
		if c > peak {
			peak = c
		}
	}
	if h.overflow > peak {
		peak = h.overflow
	}
	if peak == 0 {
		return "(empty histogram)\n"
	}
	var b strings.Builder
	row := func(label string, c int64) {
		n := int(math.Round(float64(c) / float64(peak) * float64(width)))
		fmt.Fprintf(&b, "%6s |%-*s| %d\n", label, width, strings.Repeat("#", n), c)
	}
	for i, c := range h.bins {
		if c > 0 {
			row(fmt.Sprint(i), c)
		}
	}
	if h.overflow > 0 {
		row(fmt.Sprintf("%d+", len(h.bins)), h.overflow)
	}
	return b.String()
}

// Summary holds order statistics of a float64 sample.
type Summary struct {
	N                             int
	Mean, Std                     float64
	Min, P50, P90, P99, P999, Max float64
}

// Summarize computes summary statistics of xs. An empty input yields the
// zero Summary. The variance is computed in two passes (sum of squared
// deviations from the mean) rather than the one-pass sq/n − mean² form,
// which cancels catastrophically for large-magnitude samples like serving
// latencies in machine cycles.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	n := float64(len(s))
	mean := sum / n
	var sqDev float64
	for _, x := range s {
		d := x - mean
		sqDev += d * d
	}
	q := func(p float64) float64 {
		idx := int(math.Ceil(p*n)) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		return s[idx]
	}
	return Summary{
		N:    len(s),
		Mean: mean,
		Std:  math.Sqrt(sqDev / n),
		Min:  s[0],
		P50:  q(0.50),
		P90:  q(0.90),
		P99:  q(0.99),
		P999: q(0.999),
		Max:  s[len(s)-1],
	}
}
