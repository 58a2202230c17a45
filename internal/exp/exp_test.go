package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"laps/internal/packet"
	"laps/internal/sim"
)

// tinyOpts keeps experiment tests fast: short windows, few packets.
func tinyOpts() Options {
	return Options{
		Duration:      4 * sim.Millisecond,
		ModelSeconds:  60,
		Cores:         16,
		Seed:          1,
		Workers:       4,
		StreamPackets: 40000,
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("longer") // short row padded
	tb.AddNote("note %d", 7)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "bb", "longer", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := Table{Title: "q", Columns: []string{"x"}}
	tb.AddRow(`va"l,ue`)
	var buf bytes.Buffer
	tb.CSV(&buf)
	want := "x\n\"va\"\"l,ue\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Duration == 0 || o.Cores != 16 || o.Workers == 0 || o.StreamPackets == 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
	if o.compression() != o.ModelSeconds/o.Duration.Seconds() {
		t.Fatal("compression formula wrong")
	}
}

func TestScenariosMatchTableVI(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 8 {
		t.Fatalf("scenarios = %d, want 8", len(scs))
	}
	for i, sc := range scs {
		wantName := "T" + string(rune('1'+i))
		if sc.Name != wantName {
			t.Fatalf("scenario %d named %q, want %q", i, sc.Name, wantName)
		}
		under := i < 4
		if under && sc.TargetUtil >= 1 {
			t.Fatalf("%s: under-load scenario with util %v", sc.Name, sc.TargetUtil)
		}
		if !under && sc.TargetUtil <= 1 {
			t.Fatalf("%s: overload scenario with util %v", sc.Name, sc.TargetUtil)
		}
	}
	// T1-T4 use groups G1..G4 in order.
	for i := 0; i < 4; i++ {
		if scs[i].Group.Name != "G"+string(rune('1'+i)) {
			t.Fatalf("T%d group %s", i+1, scs[i].Group.Name)
		}
	}
}

func TestCalibrationHitsTargetUtil(t *testing.T) {
	opts := tinyOpts()
	sc := Scenarios()[0]
	scale := calibrate(sc, opts.withDefaults())
	if scale <= 0 {
		t.Fatalf("scale = %v", scale)
	}
	// Recompute demand with the scale applied: must equal TargetUtil.
	scaled := sc
	for i := range scaled.Params {
		scaled.Params[i].A *= scale
		scaled.Params[i].B *= scale
		scaled.Params[i].C *= scale
	}
	again := calibrate(scaled, opts.withDefaults())
	if again < 0.99 || again > 1.01 {
		t.Fatalf("after applying scale, recalibration = %v, want ~1", again)
	}
}

func TestRunScenarioConservation(t *testing.T) {
	opts := tinyOpts()
	for _, kind := range []SchedKind{KindFCFS, KindAFS, KindLAPS, KindHashOnly, KindOracle} {
		res := runScenario(Scenarios()[0], kind, opts)
		m := res.Metrics
		if m.Injected == 0 {
			t.Fatalf("%s: no packets injected", kind)
		}
		if m.Enqueued+m.Dropped != m.Injected {
			t.Fatalf("%s: conservation violated: %d+%d != %d", kind, m.Enqueued, m.Dropped, m.Injected)
		}
		if m.Completed != m.Enqueued {
			t.Fatalf("%s: %d completed != %d enqueued after drain", kind, m.Completed, m.Enqueued)
		}
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	opts := tinyOpts()
	a := runScenario(Scenarios()[0], KindLAPS, opts)
	b := runScenario(Scenarios()[0], KindLAPS, opts)
	if a.Metrics != b.Metrics {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

func TestLAPSBeatsBaselinesOnColdCache(t *testing.T) {
	opts := tinyOpts()
	sc := Scenarios()[0]
	fcfs := runScenario(sc, KindFCFS, opts)
	laps := runScenario(sc, KindLAPS, opts)
	if laps.Metrics.ColdCacheRate() >= fcfs.Metrics.ColdCacheRate() {
		t.Fatalf("LAPS cold-cache %.3f not below FCFS %.3f",
			laps.Metrics.ColdCacheRate(), fcfs.Metrics.ColdCacheRate())
	}
	if fcfs.Metrics.ColdCacheRate() < 0.3 {
		t.Fatalf("FCFS cold-cache %.3f implausibly low (paper: ~60%%)",
			fcfs.Metrics.ColdCacheRate())
	}
}

func TestFig7ProducesAllScenarios(t *testing.T) {
	tables := Fig7(tinyOpts())
	if len(tables) != 3 {
		t.Fatalf("Fig7 returned %d tables, want 3", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 8 {
			t.Fatalf("table %q has %d rows, want 8", tb.Title, len(tb.Rows))
		}
	}
}

func TestFig8aShape(t *testing.T) {
	opts := tinyOpts()
	opts.StreamPackets = 120000
	tb := Fig8a(opts)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 annex sizes", len(tb.Rows))
	}
	// FPR at the largest annex must not exceed FPR at the smallest for
	// any trace (monotone trend within noise).
	for col := 1; col < len(tb.Columns); col++ {
		small := tb.Rows[0][col]
		large := tb.Rows[len(tb.Rows)-1][col]
		var s, l float64
		if _, err := fmtSscan(small, &s); err != nil {
			t.Fatalf("parse %q: %v", small, err)
		}
		if _, err := fmtSscan(large, &l); err != nil {
			t.Fatalf("parse %q: %v", large, err)
		}
		if l > s {
			t.Errorf("column %s: FPR rose from %.3f (annex 64) to %.3f (annex 2048)",
				tb.Columns[col], s, l)
		}
	}
}

func TestFig8bAndC(t *testing.T) {
	opts := tinyOpts()
	opts.StreamPackets = 60000
	b := Fig8b(opts)
	if len(b.Rows) == 0 {
		t.Fatal("Fig8b empty")
	}
	c := Fig8c(opts)
	if len(c.Rows) != 5 {
		t.Fatalf("Fig8c rows = %d, want 5 sampling levels", len(c.Rows))
	}
}

func TestFig2Table(t *testing.T) {
	opts := tinyOpts()
	opts.StreamPackets = 60000
	tb := Fig2(opts)
	if len(tb.Rows) != 4 {
		t.Fatalf("Fig2 rows = %d, want 4 traces", len(tb.Rows))
	}
}

func TestFig9Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 takes seconds")
	}
	opts := tinyOpts()
	opts.Duration = 16 * sim.Millisecond // fig9 divides by 4
	tables := Fig9(opts)
	if len(tables) != 3 {
		t.Fatalf("Fig9 returned %d tables", len(tables))
	}
	// OOO table: laps columns must be far below AFS's 1.0.
	ooo := tables[1]
	for _, row := range ooo.Rows {
		var laps16 float64
		if _, err := fmtSscan(row[5], &laps16); err != nil {
			t.Fatalf("parse %q: %v", row[5], err)
		}
		if laps16 > 0.5 {
			t.Errorf("%s: laps-top16 OOO ratio %.3f, want < 0.5 (paper: ~0.15)", row[0], laps16)
		}
	}
}

func TestExtensionsShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions take seconds")
	}
	opts := tinyOpts()
	opts.StreamPackets = 30000
	tables := Extensions(opts)
	if len(tables) != 3 {
		t.Fatalf("Extensions returned %d tables, want 3", len(tables))
	}
	// Adaptive table: 4 schemes.
	if len(tables[0].Rows) != 4 {
		t.Fatalf("adaptive rows = %d", len(tables[0].Rows))
	}
	// Restoration: AFS reorders, and its egress buffer restores every
	// flow's order at a storage cost; LAPS preserves order with no buffer.
	rows := map[string][]string{}
	for _, row := range tables[1].Rows {
		rows[row[0]] = row
	}
	afs, lapsRow := rows["afs+rob"], rows["laps (no rob)"]
	if afs == nil || lapsRow == nil || len(rows) != 3 {
		t.Fatalf("restoration rows = %v", tables[1].Rows)
	}
	if afs[1] == "0" || afs[2] != "0" || afs[3] == "0" {
		t.Fatalf("afs+rob row %v: want reordering before the buffer, none after, packets held", afs)
	}
	for _, cell := range lapsRow[3:] {
		if cell != "-" {
			t.Fatalf("laps row reports a buffer: %v", lapsRow)
		}
	}
	// Latency: FCFS, AFS and LAPS, one mean / p99 cell per service.
	if len(tables[2].Rows) != 3 || len(tables[2].Rows[0]) != 1+packet.NumServices {
		t.Fatalf("latency table rows = %v", tables[2].Rows)
	}
}

func TestTimelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timeline takes a second")
	}
	tb := Timeline(tinyOpts())
	if len(tb.Rows) != 12 {
		t.Fatalf("timeline rows = %d, want 12 samples", len(tb.Rows))
	}
	// Core counts per row must sum to the machine size.
	for _, row := range tb.Rows {
		total := 0
		for col := 2; col <= 5; col++ {
			var v int
			if _, err := fmt.Sscan(row[col], &v); err != nil {
				t.Fatalf("parse %q: %v", row[col], err)
			}
			total += v
		}
		if total != 16 {
			t.Fatalf("cores sum to %d at %s, want 16", total, row[0])
		}
	}
}

func TestProvisioningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("provisioning takes seconds")
	}
	tb := Provisioning(tinyOpts())
	if len(tb.Rows) != 5 {
		t.Fatalf("provisioning rows = %d", len(tb.Rows))
	}
	// Drop rate must fall monotonically with more cores for both columns.
	parse := func(s string) float64 {
		var v float64
		fmt.Sscanf(s, "%f%%", &v)
		return v
	}
	for col := 1; col <= 2; col++ {
		prev := 101.0
		for _, row := range tb.Rows {
			v := parse(row[col])
			if v > prev+1 { // allow 1pt noise
				t.Fatalf("column %d not decreasing: %v then %v", col, prev, v)
			}
			prev = v
		}
	}
}

func TestTimingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing loops take a second")
	}
	tb := Timing(tinyOpts())
	if len(tb.Rows) != 5 {
		t.Fatalf("timing rows = %d, want 5 stages", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		var ns float64
		if _, err := fmt.Sscan(row[1], &ns); err != nil || ns <= 0 {
			t.Fatalf("bad ns/decision %q (%v)", row[1], err)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"ablation", "extensions", "fig2", "fig7", "fig8a", "fig8b", "fig8c", "fig9",
		"provisioning", "scenarios", "tab4", "timeline", "timing"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry order %v, want %v", names, want)
		}
	}
	if _, err := Run("nope", tinyOpts()); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestTab4AndScenarioTable(t *testing.T) {
	tb := Tab4()
	if len(tb.Rows) != 8 {
		t.Fatalf("Tab4 rows = %d, want 8 (2 sets x 4 services)", len(tb.Rows))
	}
	st := ScenarioTable()
	if len(st.Rows) != 8 {
		t.Fatalf("ScenarioTable rows = %d", len(st.Rows))
	}
}

func TestParallelMapOrder(t *testing.T) {
	got := parallelMap(3, 20, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
	// workers < 1 coerced
	got = parallelMap(0, 3, func(i int) int { return i })
	if len(got) != 3 {
		t.Fatal("parallelMap with 0 workers broken")
	}
}

// fmtSscan parses a single float from a table cell.
func fmtSscan(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}

func TestTableJSON(t *testing.T) {
	tb := Table{Title: "j", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	tb.AddNote("n")
	var buf bytes.Buffer
	if err := tb.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"title": "j"`, `"a"`, `"1"`, `"n"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %s:\n%s", want, buf.String())
		}
	}
}
