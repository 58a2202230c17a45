package stats

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.n != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.n != 8 {
		t.Fatalf("N = %d", w.n)
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Var()-4) > 1e-12 {
		t.Fatalf("Var = %v, want 4", w.Var())
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", w.Std())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		naive := ss / float64(len(raw))
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Var()-naive) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJain(t *testing.T) {
	if got := Jain([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("balanced Jain = %v", got)
	}
	if got := Jain([]float64{4, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("degenerate Jain = %v, want 0.25", got)
	}
	if got := Jain(nil); got != 0 {
		t.Fatalf("empty Jain = %v", got)
	}
	if got := Jain([]float64{0, 0}); got != 1 {
		t.Fatalf("all-zero Jain = %v, want 1", got)
	}
}

func TestJainBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		j := Jain(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Add(v)
	}
	if h.n != 7 {
		t.Fatalf("N = %d", h.n)
	}
	if h.max != 1000 {
		t.Fatalf("Max = %d", h.max)
	}
	// 0,1,-5(clamped) in bucket 0; 2,3 in bucket 1; 4 in bucket 2; 1000 in bucket 9.
	if h.buckets[0] != 3 || h.buckets[1] != 2 || h.buckets[2] != 1 || h.buckets[9] != 1 {
		t.Fatalf("bucket layout wrong: %v", h.buckets[:12])
	}
}

func TestHistogramMean(t *testing.T) {
	var h Histogram
	h.Add(10)
	h.Add(20)
	if h.Mean() != 15 {
		t.Fatalf("Mean = %v", h.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 1000; i++ {
		h.Add(i)
	}
	// Median of 0..999 is ~500, bucket upper bound gives <= 1023.
	med := h.Quantile(0.5)
	if med < 500 || med > 1023 {
		t.Fatalf("median bound = %d, want within [500,1023]", med)
	}
	if h.Quantile(1.0) < 512 {
		t.Fatalf("p100 = %d too small", h.Quantile(1.0))
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile not 0")
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Add(3)
	if s := h.String(); s == "" {
		t.Fatal("empty String")
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1023: 9, 1024: 10}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("p25 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	// Does not mutate input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 5 {
		v := Percentile(xs, p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i & 1023))
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Add(int64(i & 0xFFFFF))
	}
}

func TestHistogramBucketsAndSums(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 1, 3, 3, 3, 100} {
		h.Add(v)
	}
	bs := h.Buckets()
	if len(bs) != 3 {
		t.Fatalf("buckets = %d, want 3", len(bs))
	}
	// Bucket 0 covers {0,1}: count 2, sum 2.
	if bs[0].Count != 2 || bs[0].Sum != 2 || bs[0].Lo != 0 || bs[0].Hi != 2 {
		t.Fatalf("bucket0 %+v", bs[0])
	}
	// Bucket [2,4): the threes.
	if bs[1].Count != 3 || bs[1].Sum != 9 {
		t.Fatalf("bucket1 %+v", bs[1])
	}
	// Bucket [64,128): the hundred.
	if bs[2].Count != 1 || bs[2].Sum != 100 || bs[2].Lo != 64 {
		t.Fatalf("bucket2 %+v", bs[2])
	}
	if h.sum != 111 {
		t.Fatalf("Sum = %v", h.sum)
	}
	// Per-bucket sums must total the global sum.
	var tot float64
	for _, b := range bs {
		tot += b.Sum
	}
	if tot != h.sum {
		t.Fatalf("bucket sums %v != total %v", tot, h.sum)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every quantile is 0.
	var empty Histogram
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if empty.Mean() != 0 || empty.max != 0 || empty.n != 0 {
		t.Fatal("empty histogram reports non-zero summary")
	}

	// Single sample: every quantile lands in its bucket.
	var one Histogram
	one.Add(100) // bucket [64,128)
	for _, q := range []float64{0.01, 0.5, 1} {
		got := one.Quantile(q)
		if got < 100 || got > 127 {
			t.Fatalf("single-sample Quantile(%v) = %d, want within [100,127]", q, got)
		}
	}

	// Duplicate values: the quantile sweep never leaves the bucket and
	// stays monotone in q.
	var dup Histogram
	for i := 0; i < 1000; i++ {
		dup.Add(42) // bucket [32,64)
	}
	prev := uint64(0)
	for _, q := range []float64{0.001, 0.25, 0.5, 0.75, 0.999, 1} {
		got := dup.Quantile(q)
		if got < 42 || got > 63 {
			t.Fatalf("duplicate Quantile(%v) = %d, want within [42,63]", q, got)
		}
		if got < prev {
			t.Fatalf("quantile not monotone at q=%v", q)
		}
		prev = got
	}
	if dup.Mean() != 42 {
		t.Fatalf("duplicate mean = %v, want 42", dup.Mean())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("a", "b")
	if s.Len() != 0 {
		t.Fatal("new series not empty")
	}
	if s.ColMean(0) != 0 {
		t.Fatal("empty series mean not 0")
	}
	s.Append(0.1, 1, 10)
	s.Append(0.2, 2, 20)
	s.Append(0.3, 3, 30)
	if s.Len() != 3 {
		t.Fatalf("len %d, want 3", s.Len())
	}
	if s.Time(1) != 0.2 || s.At(0, 1) != 2 || s.At(1, 2) != 30 {
		t.Fatal("row access wrong")
	}
	if got := s.Col("b"); len(got) != 3 || got[0] != 10 {
		t.Fatalf("Col(b) = %v", got)
	}
	if s.Col("missing") != nil {
		t.Fatal("missing column should be nil")
	}
	if got := s.ColMean(0); got != 2 {
		t.Fatalf("ColMean = %v, want 2", got)
	}
	if names := s.names; len(names) != 2 || names[0] != "a" {
		t.Fatalf("Names = %v", names)
	}
}

func TestSeriesAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on arity mismatch")
		}
	}()
	NewSeries("a", "b").Append(0, 1)
}

func TestSeriesWriteCSV(t *testing.T) {
	s := NewSeries("q", "drops")
	s.Append(0.5, 3, 0)
	s.Append(1.5, 4.25, 2)
	var buf strings.Builder
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t,q,drops\n0.5,3,0\n1.5,4.25,2\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}
