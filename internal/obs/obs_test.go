package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"laps/internal/packet"
	"laps/internal/sim"
)

// collectorSink accumulates events in memory.
type collectorSink struct {
	Events []Event
	Closed bool
}

func (s *collectorSink) Write(e Event) error {
	s.Events = append(s.Events, e)
	return nil
}

func (s *collectorSink) Close() error {
	s.Closed = true
	return nil
}

// TestNilRecorder checks every Recorder method is a safe no-op on nil —
// the property that lets instrumented code skip conditional wiring.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.SetClock(func() sim.Time { return 1 })
	r.Emit(Event{Kind: EvDrop})
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || r.Overwritten() != 0 || r.Count(EvDrop) != 0 {
		t.Fatal("nil recorder reported state")
	}
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder returned events %v", got)
	}
	if err := r.Drain(&collectorSink{}); err != nil {
		t.Fatalf("nil drain: %v", err)
	}
}

// TestRingOverwrite checks the ring keeps the newest events and counts
// what it discarded.
func TestRingOverwrite(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Emit(Event{Kind: EvDrop, Val: int64(i)})
	}
	if r.Total() != 6 || r.Len() != 4 || r.Overwritten() != 2 {
		t.Fatalf("total=%d len=%d overwritten=%d", r.Total(), r.Len(), r.Overwritten())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.Val != int64(i+2) {
			t.Fatalf("event %d has val %d, want %d", i, e.Val, i+2)
		}
	}
	if r.Count(EvDrop) != 6 {
		t.Fatalf("count = %d, want 6 (lifetime)", r.Count(EvDrop))
	}
}

// TestClockStamping checks events are stamped from the attached clock
// and come out monotonically non-decreasing.
func TestClockStamping(t *testing.T) {
	now := sim.Time(0)
	r := NewRecorder(16)
	r.SetClock(func() sim.Time { return now })
	for i := 0; i < 5; i++ {
		now = sim.Time(i) * sim.Microsecond
		r.Emit(Event{Kind: EvMapSplit})
	}
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("timestamps regress: %v after %v", evs[i].T, evs[i-1].T)
		}
	}
	if evs[4].T != 4*sim.Microsecond {
		t.Fatalf("last stamp %v, want 4us", evs[4].T)
	}
}

// TestDrainClearsRing checks Drain empties the buffer but keeps lifetime
// counters.
func TestDrainClearsRing(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(Event{Kind: EvCoreSteal})
	r.Emit(Event{Kind: EvMapSplit})
	var c collectorSink
	if err := r.Drain(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.Events) != 2 {
		t.Fatalf("drained %d events, want 2", len(c.Events))
	}
	if r.Len() != 0 || r.Total() != 2 || r.Count(EvCoreSteal) != 1 {
		t.Fatalf("post-drain len=%d total=%d", r.Len(), r.Total())
	}
}

func sampleFlow() packet.FlowKey {
	return packet.FlowKey{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 80, DstPort: 8080, Proto: 6}
}

// TestJSONLSink checks every line is valid JSON with the documented
// schema, and that the flow field appears exactly for flow-carrying
// kinds.
func TestJSONLSink(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(Event{Kind: EvFlowMigration, Service: 0, Core: 3, Core2: 7, Val: 24, Flow: sampleFlow()})
	r.Emit(Event{Kind: EvMapSplit, Service: 1, Core: 5, Core2: -1, Val: 4})

	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	if err := r.Drain(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var mig map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &mig); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if mig["kind"] != "migration" || mig["core"] != float64(3) || mig["core2"] != float64(7) {
		t.Fatalf("bad migration line: %v", mig)
	}
	if _, ok := mig["flow"]; !ok {
		t.Fatal("migration line lacks flow")
	}
	var split map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &split); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if _, ok := split["flow"]; ok {
		t.Fatal("map-split line carries a flow")
	}
}

// TestChromeTraceSink checks the export is one valid JSON document in
// Trace Event Format: a traceEvents array of instant events keyed by
// core (tid) and service (pid), with microsecond timestamps.
func TestChromeTraceSink(t *testing.T) {
	r := NewRecorder(8)
	r.SetClock(func() sim.Time { return 1500 }) // 1.5 us
	r.Emit(Event{Kind: EvFlowMigration, Service: 2, Core: 3, Core2: 7, Flow: sampleFlow()})
	r.Emit(Event{Kind: EvDrop, Service: 0, Core: 1, Core2: -1, Val: 32, Flow: sampleFlow()})

	var buf bytes.Buffer
	s := NewChromeTraceSink(&buf)
	if err := r.Drain(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 instant events + 2 process_name metadata records (services 0, 2).
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4: %s", len(doc.TraceEvents), buf.String())
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "migration" || ev.Ph != "i" || ev.Pid != 2 || ev.Tid != 3 || ev.Ts != 1.5 {
		t.Fatalf("bad first trace event: %+v", ev)
	}
}

// TestSampler checks scheduled sampling lands every interval up to the
// horizon and feeds the columnar series.
func TestSampler(t *testing.T) {
	eng := sim.NewEngine()
	calls := 0
	sm := NewSampler(10*sim.Microsecond,
		Probe{Name: "ticks", Fn: func() float64 { calls++; return float64(calls) }},
		Probe{Name: "const", Fn: func() float64 { return 7 }},
	)
	sm.Schedule(eng, 100*sim.Microsecond)
	eng.Run()

	s := sm.Series()
	if s.Len() != 10 {
		t.Fatalf("series has %d rows, want 10", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		wantT := (float64(i) + 1) * 10e-6
		if got := s.Time(i); got < wantT*0.999 || got > wantT*1.001 {
			t.Fatalf("row %d at t=%g, want %g", i, got, wantT)
		}
		if s.At(0, i) != float64(i+1) || s.At(1, i) != 7 {
			t.Fatalf("row %d values (%g,%g)", i, s.At(0, i), s.At(1, i))
		}
	}
}

// TestRateProbe checks delta and ratio semantics.
func TestRateProbe(t *testing.T) {
	var num, den uint64
	delta := RateProbe("d", func() uint64 { return num }, nil)
	ratio := RateProbe("r", func() uint64 { return num }, func() uint64 { return den })

	num = 5
	if got := delta.Fn(); got != 5 {
		t.Fatalf("first delta %g, want 5", got)
	}
	num = 8
	if got := delta.Fn(); got != 3 {
		t.Fatalf("second delta %g, want 3", got)
	}

	num, den = 10, 20
	if got := ratio.Fn(); got != 0.5 {
		t.Fatalf("ratio %g, want 0.5", got)
	}
	// No new denominator events: rate reports 0, not NaN.
	num = 12
	if got := ratio.Fn(); got != 0 {
		t.Fatalf("stalled ratio %g, want 0", got)
	}
}

// TestKindStrings checks every kind has a distinct exported name.
func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); int(k) < NumKinds; k++ {
		n := k.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("kind %d has bad name %q", k, n)
		}
		seen[n] = true
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind should be unknown")
	}
}

// BenchmarkEmitDisabled measures the disabled-telemetry cost: one branch.
func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{Kind: EvDrop, Core: 1})
	}
}

// BenchmarkEmitEnabled measures the enabled hot path: ring write, no
// allocation.
func BenchmarkEmitEnabled(b *testing.B) {
	r := NewRecorder(1 << 12)
	r.SetClock(func() sim.Time { return 42 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{Kind: EvDrop, Core: 1})
	}
}

// TestRecorderMerge checks Merge interleaves externally-recorded events
// into timestamp order, keeps lifetime counters coherent, and applies
// the same keep-the-newest overflow rule as Emit.
func TestRecorderMerge(t *testing.T) {
	r := NewRecorder(16)
	clock := sim.Time(10)
	r.SetClock(func() sim.Time { return clock })
	r.Emit(Event{Kind: EvDrop})
	clock = 30
	r.Emit(Event{Kind: EvDrop})

	r.Merge([]Event{
		{T: 20, Kind: EvFenceStart, Flow: sampleFlow()},
		{T: 25, Kind: EvFenceEnd, Flow: sampleFlow()},
	})
	evs := r.Events()
	if len(evs) != 4 || r.Total() != 4 {
		t.Fatalf("len=%d total=%d, want 4/4", len(evs), r.Total())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("event %d at t=%d before t=%d", i, evs[i].T, evs[i-1].T)
		}
	}
	if evs[1].Kind != EvFenceStart || evs[2].Kind != EvFenceEnd {
		t.Fatalf("merged events not interleaved: %v %v", evs[1].Kind, evs[2].Kind)
	}
	if r.Count(EvFenceStart) != 1 || r.Count(EvDrop) != 2 {
		t.Fatalf("counts drifted: fence-start=%d drop=%d", r.Count(EvFenceStart), r.Count(EvDrop))
	}

	// Overflow: a merge larger than the ring keeps the newest events.
	small := NewRecorder(4)
	var batch []Event
	for i := 0; i < 6; i++ {
		batch = append(batch, Event{T: sim.Time(i), Kind: EvDrop})
	}
	small.Merge(batch)
	if small.Len() != 4 || small.Total() != 6 || small.Overwritten() != 2 {
		t.Fatalf("overflow merge: len=%d total=%d overwritten=%d",
			small.Len(), small.Total(), small.Overwritten())
	}
	if got := small.Events()[0].T; got != 2 {
		t.Fatalf("oldest kept event at t=%d, want 2 (newest-4)", got)
	}
}

// TestChromeTraceSpans checks span kinds export as async begin/end
// pairs: fences matched by flow identity, recoveries by (worker, shard),
// so chrome://tracing renders them as measurable intervals.
func TestChromeTraceSpans(t *testing.T) {
	r := NewRecorder(8)
	clock := sim.Time(1000)
	r.SetClock(func() sim.Time { return clock })
	r.Emit(Event{Kind: EvFenceStart, Service: 1, Core: 2, Core2: 3, Val: 7, Flow: sampleFlow()})
	clock = 2500
	r.Emit(Event{Kind: EvFenceEnd, Service: 1, Core: 3, Core2: 2, Val: 1500, Flow: sampleFlow()})
	clock = 3000
	r.Emit(Event{Kind: EvRecoveryStart, Service: -1, Core: 1, Core2: 0, Val: 42})
	clock = 9000
	r.Emit(Event{Kind: EvRecoveryEnd, Service: -1, Core: 1, Core2: 0, Val: 6000})

	var buf bytes.Buffer
	s := NewChromeTraceSink(&buf)
	if err := r.Drain(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			ID   string  `json:"id"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans []struct {
		Name string
		Ph   string
		ID   string
		Ts   float64
	}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "laps-span" {
			spans = append(spans, struct {
				Name string
				Ph   string
				ID   string
				Ts   float64
			}{ev.Name, ev.Ph, ev.ID, ev.Ts})
		}
	}
	if len(spans) != 4 {
		t.Fatalf("got %d span records, want 4: %s", len(spans), buf.String())
	}
	if spans[0].Name != "fence" || spans[0].Ph != "b" || spans[1].Ph != "e" {
		t.Fatalf("fence span not a b/e pair: %+v %+v", spans[0], spans[1])
	}
	if spans[0].ID != spans[1].ID || spans[0].ID != sampleFlow().String() {
		t.Fatalf("fence spans matched by %q / %q, want the flow identity", spans[0].ID, spans[1].ID)
	}
	if spans[2].Name != "recovery" || spans[2].ID != "w1-s0" || spans[3].ID != "w1-s0" {
		t.Fatalf("recovery spans matched by %q / %q, want w1-s0", spans[2].ID, spans[3].ID)
	}
	if spans[1].Ts <= spans[0].Ts || spans[3].Ts <= spans[2].Ts {
		t.Fatal("span ends do not follow their starts")
	}
}
