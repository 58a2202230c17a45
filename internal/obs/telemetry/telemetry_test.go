package telemetry

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Every int64 must land in a bucket whose bounds actually contain it,
// and bucket upper bounds must be strictly increasing.
func TestBucketLayout(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < NumBuckets; i++ {
		u := BucketUpper(i)
		if u <= prev {
			t.Fatalf("bucket %d upper %d not > previous %d", i, u, prev)
		}
		if got := bucketOf(u); got != i {
			t.Fatalf("BucketUpper(%d)=%d maps back to bucket %d", i, u, got)
		}
		if i > 0 {
			if got := bucketOf(prev + 1); got != i {
				t.Fatalf("lower bound %d of bucket %d maps to %d", prev+1, i, got)
			}
		}
		prev = u
	}
	if bucketOf(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
	if bucketOf(1<<62) != NumBuckets-subCount {
		t.Fatalf("2^62 maps to %d", bucketOf(1<<62))
	}
}

// The log-linear scheme promises <= 1/2^subBits relative error: the
// bucket upper bound never overstates a value by more than 12.5%.
func TestBucketRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100000; i++ {
		v := rng.Int63()
		u := BucketUpper(bucketOf(v))
		if u < v {
			t.Fatalf("upper bound %d below value %d", u, v)
		}
		if float64(u-v) > float64(v)/subCount+1 {
			t.Fatalf("value %d bucket upper %d: relative error %.3f", v, u, float64(u-v)/float64(v))
		}
	}
}

func TestHistRecordAndSnapshot(t *testing.T) {
	var nilHist *Hist
	nilHist.Record(0, 5) // must not panic
	if nilHist.Snapshot().Count != 0 {
		t.Fatalf("nil hist must read as empty")
	}

	h := NewHist(HistOpts{Name: "x", Lanes: 4})
	var wg sync.WaitGroup
	const perLane = 10000
	for lane := 0; lane < 4; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 1; i <= perLane; i++ {
				h.Record(lane, int64(i))
			}
		}(lane)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 4*perLane {
		t.Fatalf("count = %d, want %d", s.Count, 4*perLane)
	}
	wantSum := int64(4) * perLane * (perLane + 1) / 2
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Max != perLane {
		t.Fatalf("max = %d, want %d", s.Max, perLane)
	}
	p50 := s.Quantile(0.5)
	if p50 < perLane/2 || float64(p50) > float64(perLane/2)*1.125+1 {
		t.Fatalf("p50 = %d, want ~%d", p50, perLane/2)
	}
	if q := s.Quantile(1.0); q < perLane {
		t.Fatalf("p100 = %d, want >= %d", q, perLane)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 7
	r.Counter("laps_packets_total", "Packets.", func() uint64 { return c })
	r.CounterL("laps_worker_processed_total", `worker="0"`, "Per worker.", func() uint64 { return 3 })
	r.CounterL("laps_worker_processed_total", `worker="1"`, "Per worker.", func() uint64 { return 4 })
	r.Gauge("laps_workers_alive", "Alive.", func() float64 { return 2 })
	h := r.NewHist(HistOpts{Name: "laps_latency_seconds", Help: "Latency.", Scale: 1e-9, MinExp: 10, MaxExp: 20, Lanes: 1})
	h.Record(0, 1500) // in (1024, 2048]
	h.Record(0, 3000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE laps_packets_total counter",
		"laps_packets_total 7",
		`laps_worker_processed_total{worker="0"} 3`,
		`laps_worker_processed_total{worker="1"} 4`,
		"# TYPE laps_workers_alive gauge",
		"laps_workers_alive 2",
		"# TYPE laps_latency_seconds histogram",
		`laps_latency_seconds_bucket{le="+Inf"} 2`,
		"laps_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The HELP/TYPE header for a labeled family must appear exactly once.
	if n := strings.Count(out, "# TYPE laps_worker_processed_total"); n != 1 {
		t.Fatalf("labeled family TYPE header appears %d times", n)
	}
	// Cumulative buckets: 1500ns <= 2^11ns, 3000ns <= 2^12ns.
	if !strings.Contains(out, `laps_latency_seconds_bucket{le="2.048e-06"} 1`) {
		t.Fatalf("le=2048ns bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, `laps_latency_seconds_bucket{le="4.096e-06"} 2`) {
		t.Fatalf("le=4096ns bucket wrong:\n%s", out)
	}
	checkExposition(t, out)
}

// checkExposition enforces the same well-formedness rules the CI smoke
// job greps for: every non-comment line is "name[{labels}] value" and
// histogram bucket series are monotonically non-decreasing.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	lastBucket := map[string]uint64{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			base := name[:i]
			if strings.HasSuffix(base, "_bucket") {
				var v uint64
				if _, err := sscanUint(fields[1], &v); err != nil {
					t.Fatalf("bucket value not an integer in %q", line)
				}
				if v < lastBucket[base] {
					t.Fatalf("bucket series %s not cumulative at %q", base, line)
				}
				lastBucket[base] = v
			}
		}
	}
}

func sscanUint(s string, v *uint64) (int, error) {
	var err error
	*v, err = parseUint(s)
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func parseUint(s string) (uint64, error) {
	var v uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errNotUint
		}
		v = v*10 + uint64(s[i]-'0')
	}
	return v, nil
}

var errNotUint = errorString("not an unsigned integer")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestAdminMux(t *testing.T) {
	r := NewRegistry()
	r.Counter("laps_packets_total", "Packets.", func() uint64 { return 1 })
	h := r.NewHist(HistOpts{Name: "laps_latency_seconds", Help: "L.", Scale: 1e-9, MinExp: 8, MaxExp: 30, Lanes: 1})
	h.Record(0, 999)

	alive := true
	mux := NewAdminMux(r, func() []WorkerState {
		return []WorkerState{{ID: 0, Alive: true}, {ID: 1, Alive: alive}}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		return resp.StatusCode, sb.String()
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "laps_packets_total 1") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	checkExposition(t, body)

	code, body = get("/healthz")
	if code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy /healthz = %d %s", code, body)
	}
	alive = false
	code, body = get("/healthz")
	if code != 503 || !strings.Contains(body, `"status":"degraded"`) {
		t.Fatalf("degraded /healthz = %d %s", code, body)
	}

	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["laps"]; !ok {
		t.Fatalf("/debug/vars missing laps var: %s", body)
	}

	code, _ = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// Two registries exposed in one process must not panic on the expvar
// duplicate-Publish rule, and the latest wins.
func TestExpvarRepublish(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("a_total", "A.", func() uint64 { return 1 })
	r2 := NewRegistry()
	r2.Counter("b_total", "B.", func() uint64 { return 2 })
	NewAdminMux(r1, nil)
	NewAdminMux(r2, nil) // must not panic
	snap := expvarReg.Load().Snapshot()
	if _, ok := snap["b_total"]; !ok {
		t.Fatalf("latest registry not active in expvar mirror: %v", snap)
	}
}
