package laps_test

import (
	"testing"

	"laps"
)

// TestIntegrationPaperOrderings runs a medium single-service overload
// scenario across all schedulers and asserts the paper's headline
// orderings hold end-to-end through the public API.
func TestIntegrationPaperOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run takes ~10s")
	}
	run := func(kind laps.SchedulerKind) *laps.SimResult {
		res, err := laps.Simulate(laps.SimConfig{
			StackConfig: laps.StackConfig{
				Scheduler: kind,
				Duration:  15 * laps.Millisecond,
				Seed:      5,
				Traffic: []laps.ServiceTraffic{{
					Service: laps.SvcIPForward,
					Params:  laps.RateParams{A: 33.6, Sigma: 0.7},
					Trace:   laps.CAIDATrace(3),
				}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noMig := run(laps.HashOnly)
	afs := run(laps.AFS)
	lapsRes := run(laps.LAPS)
	oracle := run(laps.Oracle)

	// Ordering 1: AFS reorders massively; LAPS reorders a small fraction
	// of that; no-migration reorders nothing.
	if noMig.Metrics.OutOfOrder != 0 {
		t.Errorf("hash-only OOO = %d, want 0", noMig.Metrics.OutOfOrder)
	}
	if lapsRes.Metrics.OutOfOrder*3 > afs.Metrics.OutOfOrder {
		t.Errorf("LAPS OOO %d not well below AFS %d",
			lapsRes.Metrics.OutOfOrder, afs.Metrics.OutOfOrder)
	}
	// Ordering 2: LAPS migrates a small fraction of AFS's flows.
	if lapsRes.Metrics.Migrations*3 > afs.Metrics.Migrations {
		t.Errorf("LAPS migrations %d not well below AFS %d",
			lapsRes.Metrics.Migrations, afs.Metrics.Migrations)
	}
	// Ordering 3: migrating top flows must not be catastrophically worse
	// than AFS on drops, and must see the oracle as an upper bound story.
	if lapsRes.Metrics.DropRate() > 2*afs.Metrics.DropRate() {
		t.Errorf("LAPS drop rate %.3f more than 2x AFS %.3f",
			lapsRes.Metrics.DropRate(), afs.Metrics.DropRate())
	}
	if oracle.Metrics.Completed == 0 {
		t.Error("oracle completed nothing")
	}
}

// TestIntegrationRestoreOrder exercises the egress re-order buffer
// through the public API: after restoration an AFS run has (almost) no
// out-of-order packets left, at a measurable buffering cost.
func TestIntegrationRestoreOrder(t *testing.T) {
	res, err := laps.Simulate(laps.SimConfig{
		StackConfig: laps.StackConfig{
			Scheduler: laps.AFS,
			Duration:  8 * laps.Millisecond,
			Seed:      5,
			Traffic: []laps.ServiceTraffic{{
				Service: laps.SvcIPForward,
				Params:  laps.RateParams{A: 33.6, Sigma: 0.7},
				Trace:   laps.CAIDATrace(3),
			}},
		},
		RestoreOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored == nil {
		t.Fatal("RestoreOrder set but no Restored result")
	}
	before := res.Metrics.OutOfOrder
	after := res.Restored.OutOfOrderAfter
	if before == 0 {
		t.Fatal("test degenerate: AFS produced no reordering")
	}
	if after*10 > before {
		t.Fatalf("restoration left %d of %d OOO packets", after, before)
	}
	if res.Restored.Buffer.Held == 0 || res.Restored.Buffer.MaxOccupancy == 0 {
		t.Fatal("restoration claims to be free — buffer never held anything")
	}
}

// TestIntegrationMultiserviceIsolation verifies through the public API
// that LAPS keeps services on disjoint cores (the I-cache property):
// cold-cache events must be limited to first-packet program loads and
// core reallocations, i.e. orders of magnitude below FCFS.
func TestIntegrationMultiserviceIsolation(t *testing.T) {
	traffic := func() []laps.ServiceTraffic {
		return []laps.ServiceTraffic{
			{Service: laps.SvcIPForward, Params: laps.RateParams{A: 2.2},
				Trace: laps.CAIDATrace(1)},
			{Service: laps.SvcMalwareScan, Params: laps.RateParams{A: 0.3},
				Trace: laps.AucklandTrace(1)},
			{Service: laps.SvcVPNIn, Params: laps.RateParams{A: 0.12},
				Trace: laps.AucklandTrace(2)},
			{Service: laps.SvcVPNOut, Params: laps.RateParams{A: 0.2},
				Trace: laps.CAIDATrace(2)},
		}
	}
	fcfs, err := laps.Simulate(laps.SimConfig{StackConfig: laps.StackConfig{
		Scheduler: laps.FCFS, Duration: 6 * laps.Millisecond, Seed: 3, Traffic: traffic()}})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := laps.Simulate(laps.SimConfig{StackConfig: laps.StackConfig{
		Scheduler: laps.LAPS, Duration: 6 * laps.Millisecond, Seed: 3, Traffic: traffic()}})
	if err != nil {
		t.Fatal(err)
	}
	if fcfs.Metrics.ColdCache < 100*lp.Metrics.ColdCache {
		t.Fatalf("cold caches: fcfs %d vs laps %d — isolation not working",
			fcfs.Metrics.ColdCache, lp.Metrics.ColdCache)
	}
	// At this light load both complete everything, but FCFS burns far
	// more core time doing it (every service switch refills the I-cache).
	if fcfs.Metrics.BusyTime < 2*lp.Metrics.BusyTime {
		t.Fatalf("FCFS busy %v not well above LAPS %v despite cold caches",
			fcfs.Metrics.BusyTime, lp.Metrics.BusyTime)
	}
}
