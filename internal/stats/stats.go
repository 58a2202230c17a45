// Package stats provides the small statistics toolkit the experiment
// harness uses: log-bucketed latency histograms,
// columnar telemetry series, and a load-balance index (Jain fairness).
package stats

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Jain computes Jain's fairness index (Σx)² / (n·Σx²): 1 means perfectly
// balanced load, 1/n means one element carries everything.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1 // all zeros: trivially balanced
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Histogram is a log2-bucketed histogram of non-negative integer
// observations (e.g. latencies in ns). Bucket i covers [2^i, 2^(i+1)),
// with bucket 0 covering {0, 1}.
type Histogram struct {
	buckets [64]uint64
	n       uint64
	sum     float64
	max     uint64
}

// Add folds one observation in. Negative values are clamped to zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.sum += float64(v)
	if uint64(v) > h.max {
		h.max = uint64(v)
	}
	h.buckets[bucketOf(uint64(v))]++
}

// Bucket describes one non-empty histogram bucket.
type Bucket struct {
	Lo, Hi uint64 // value range [Lo, Hi)
	Count  uint64
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := uint64(0)
		if i > 0 {
			lo = 1 << uint(i)
		}
		out = append(out, Bucket{Lo: lo, Hi: 1 << uint(i+1), Count: c})
	}
	return out
}

func bucketOf(v uint64) int {
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// Mean returns the mean observation.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) using
// bucket upper edges; it is exact to within a factor of 2.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			if i >= 63 {
				return math.MaxUint64
			}
			return 1<<(uint(i)+1) - 1
		}
	}
	return h.max
}

// String renders the non-empty buckets compactly, one [Lo,Hi)=Count
// entry each.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist{n=%d mean=%.4g", h.n, h.Mean())
	for _, k := range h.Buckets() {
		fmt.Fprintf(&b, " [%d,%d)=%d", k.Lo, k.Hi, k.Count)
	}
	b.WriteString("}")
	return b.String()
}

// Series is a compact columnar time series: one shared time axis plus
// named value columns appended in lockstep. It is the storage behind the
// telemetry sampler (internal/obs) and replaces ad-hoc per-experiment
// slices-of-rows: columns stay contiguous for cheap appends and direct
// per-signal access.
type Series struct {
	names []string
	times []float64
	cols  [][]float64
}

// NewSeries creates a series with one column per name.
func NewSeries(names ...string) *Series {
	s := &Series{
		names: append([]string(nil), names...),
		cols:  make([][]float64, len(names)),
	}
	return s
}

// Append records one row at time t. len(vals) must equal the column
// count.
func (s *Series) Append(t float64, vals ...float64) {
	if len(vals) != len(s.cols) {
		panic(fmt.Sprintf("stats: appending %d values to a %d-column series", len(vals), len(s.cols)))
	}
	s.times = append(s.times, t)
	for i, v := range vals {
		s.cols[i] = append(s.cols[i], v)
	}
}

// Len returns the number of rows.
func (s *Series) Len() int { return len(s.times) }

// Time returns row i's timestamp.
func (s *Series) Time(i int) float64 { return s.times[i] }

// At returns column col's value at row i.
func (s *Series) At(col, i int) float64 { return s.cols[col][i] }

// Col returns the column with the given name (nil if absent). The
// returned slice aliases the series' storage.
func (s *Series) Col(name string) []float64 {
	for i, n := range s.names {
		if n == name {
			return s.cols[i]
		}
	}
	return nil
}

// ColMean returns the mean of column col (0 for an empty series).
func (s *Series) ColMean(col int) float64 {
	if len(s.times) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.cols[col] {
		sum += v
	}
	return sum / float64(len(s.cols[col]))
}

// WriteCSV renders the series as CSV with a leading "t" time column.
func (s *Series) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("t")
	for _, n := range s.names {
		bw.WriteByte(',')
		bw.WriteString(n)
	}
	bw.WriteByte('\n')
	for i := range s.times {
		fmt.Fprintf(bw, "%g", s.times[i])
		for c := range s.cols {
			fmt.Fprintf(bw, ",%g", s.cols[c][i])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Percentile returns the p-th percentile (0<=p<=100) of a sample by
// sorting a copy; intended for small result sets, not hot paths.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(c) {
		return c[lo]
	}
	return c[lo]*(1-frac) + c[lo+1]*frac
}
