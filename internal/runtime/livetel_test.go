package runtime

// Reconciliation tests for the live telemetry layer: the histogram
// counts a /metrics scrape would report must agree exactly with the
// engine's own end-of-run accounting (Result) and with the event
// recorder. Any drift means an instrument site is missing or doubled.

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"laps/internal/obs"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
)

// histCount digs one histogram's sample count out of a registry
// snapshot.
func histCount(t *testing.T, snap map[string]any, name string) uint64 {
	t.Helper()
	h, ok := snap[name].(map[string]any)
	if !ok {
		t.Fatalf("snapshot has no histogram %q", name)
	}
	return h["count"].(uint64)
}

// lateKill makes worker 1 die after Stop can no longer recover it: its
// handler holds the worker's first batch until the armed ring is closed
// (Stop closes rings only once re-injection is over), and a kill fault
// fires right behind that batch. Whatever else was queued for worker 1
// is stranded.
type lateKill struct{ ring atomic.Pointer[Ring] }

func (k *lateKill) rig(cfg Config) Config {
	cfg.Faults = &FaultPlan{Faults: []Fault{{Worker: 1, After: 1, Kind: FaultKill}}}
	cfg.Handler = func(w int, _ *packet.Packet) {
		for w == 1 && !k.ring.Load().Closed() {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return cfg
}

// checkStrandedScrape: packets stranded at Stop are drops, and a scrape
// after Stop must say so exactly as Result does.
func checkStrandedScrape(t *testing.T, reg *telemetry.Registry, res *Result) {
	t.Helper()
	checkConservation(t, res)
	if res.Stranded == 0 {
		t.Fatal("late kill stranded nothing")
	}
	if got := reg.Snapshot()["laps_dropped_total"].(uint64); got != res.Dropped {
		t.Fatalf("laps_dropped_total %d != Dropped %d (stranded %d)", got, res.Dropped, res.Stranded)
	}
}

// TestEngineTelemetryReconciles runs the legacy engine through a
// migration storm plus a worker kill with the full telemetry stack on,
// then cross-checks every histogram against Result and the recorder.
func TestEngineTelemetryReconciles(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := obs.NewRecorder(1 << 15)
	plan := &FaultPlan{Faults: []Fault{{Worker: 3, After: 2000, Kind: FaultKill}}}
	e, err := New(Config{
		Workers:      4,
		RingCap:      64,
		Batch:        16,
		Sched:        &flapSched{n: 4, period: 700},
		Policy:       BlockWhenFull,
		Faults:       plan,
		DetectWindow: 80 * time.Millisecond,
		Recorder:     rec,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e, 120000, 2, 42)
	res := e.Stop()
	checkConservation(t, res)

	snap := reg.Snapshot()
	if got := snap["laps_dispatched_total"].(uint64); got != res.Dispatched {
		t.Fatalf("laps_dispatched_total %d != Dispatched %d", got, res.Dispatched)
	}
	if got := snap["laps_processed_total"].(uint64); got != res.Processed {
		t.Fatalf("laps_processed_total %d != Processed %d", got, res.Processed)
	}
	if got := snap["laps_worker_deaths_total"].(uint64); got != res.WorkerDeaths {
		t.Fatalf("laps_worker_deaths_total %d != WorkerDeaths %d", got, res.WorkerDeaths)
	}
	if res.WorkerDeaths == 0 {
		t.Fatal("kill fault produced no deaths")
	}

	// Every retirement records latency and ring wait exactly once.
	if got := histCount(t, snap, "laps_packet_latency_seconds"); got != res.Processed {
		t.Fatalf("latency samples %d != Processed %d", got, res.Processed)
	}
	if got := histCount(t, snap, "laps_ring_wait_seconds"); got != res.Processed {
		t.Fatalf("ring-wait samples %d != Processed %d", got, res.Processed)
	}
	// Every non-empty consume batch records one service time.
	var batches uint64
	for _, w := range res.Workers {
		batches += w.Batches
	}
	if got := histCount(t, snap, "laps_batch_service_seconds"); got != batches {
		t.Fatalf("batch-service samples %d != total batches %d", got, batches)
	}
	// Fenced runs keep ordering absolute, so the reorder histograms
	// must agree with the (zero) OOO count rather than invent samples.
	if got := histCount(t, snap, "laps_reorder_lag_packets"); got != res.OutOfOrder {
		t.Fatalf("reorder samples %d != OutOfOrder %d", got, res.OutOfOrder)
	}
	// One recovery span per quarantine.
	if got := histCount(t, snap, "laps_recovery_seconds"); got != res.WorkerDeaths {
		t.Fatalf("recovery samples %d != WorkerDeaths %d", got, res.WorkerDeaths)
	}
	if rec.Count(obs.EvRecoveryStart) != res.WorkerDeaths || rec.Count(obs.EvRecoveryEnd) != res.WorkerDeaths {
		t.Fatalf("recovery spans unbalanced: %d starts, %d ends, %d deaths",
			rec.Count(obs.EvRecoveryStart), rec.Count(obs.EvRecoveryEnd), res.WorkerDeaths)
	}
	// One fence-hold sample per closed fence span; opens may outnumber
	// closes (fences open at run end, or wiped silently by recovery).
	ends := rec.Count(obs.EvFenceEnd)
	if got := histCount(t, snap, "laps_fence_hold_seconds"); got != ends {
		t.Fatalf("fence-hold samples %d != EvFenceEnd count %d", got, ends)
	}
	if starts := rec.Count(obs.EvFenceStart); starts < ends {
		t.Fatalf("fence spans unbalanced: %d starts < %d ends", starts, ends)
	}
	if ends == 0 {
		t.Fatal("migration storm closed no fence spans")
	}
	if res.MaxFenceHold <= 0 {
		t.Fatalf("MaxFenceHold %v, want > 0 with %d closed fences", res.MaxFenceHold, ends)
	}
	// The gauge, the Result field and the histogram max are three reads
	// of the same nanosecond count; the ns→s conversions differ (scale
	// multiply vs Duration.Seconds division), so compare within an ULP.
	sameSeconds := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	fh := snap["laps_fence_hold_seconds"].(map[string]any)
	if gotMax := fh["max"].(float64); !sameSeconds(gotMax, res.MaxFenceHold.Seconds()) {
		t.Fatalf("fence-hold hist max %v != MaxFenceHold %v", gotMax, res.MaxFenceHold.Seconds())
	}
	if got := snap["laps_max_fence_hold_seconds"].(float64); !sameSeconds(got, res.MaxFenceHold.Seconds()) {
		t.Fatalf("gauge %v != MaxFenceHold %v", got, res.MaxFenceHold.Seconds())
	}

	// The exposition must render and contain every family.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"laps_packet_latency_seconds_bucket{le=\"+Inf\"}",
		"laps_fence_hold_seconds_count",
		"laps_recovery_seconds_count",
		"laps_worker_processed_total{worker=\"3\"}",
		"laps_worker_up{worker=\"0\"}",
		"laps_workers_alive",
	} {
		if !strings.Contains(buf.String(), fam) {
			t.Fatalf("exposition missing %q", fam)
		}
	}

	t.Run("stranded at Stop", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		var k lateKill
		e, err := New(k.rig(Config{Workers: 2, RingCap: 64, Batch: 8, Sched: hashSched{n: 2},
			Policy: BlockWhenFull, Telemetry: reg}))
		if err != nil {
			t.Fatal(err)
		}
		k.ring.Store(e.workers[1].rings[0])
		e.Start(context.Background())
		for i := 0; i < 40; i++ {
			e.DispatchTo(&packet.Packet{ID: uint64(i + 1), Flow: fkey(i % 5), FlowSeq: uint64(i / 5)}, 1)
		}
		checkStrandedScrape(t, reg, e.Stop())
	})
}

// TestShardedTelemetryReconciles is the sharded twin: snapshot-routed
// migration flapping with the registry attached, checking the
// shard-lane histograms.
func TestShardedTelemetryReconciles(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := obs.NewRecorder(1 << 15)
	e, err := NewSharded(Config{
		Workers:     2,
		Dispatchers: 2,
		RingCap:     64,
		Batch:       8,
		Sched:       &snapFlap{n: 2, period: 200},
		Policy:      BlockWhenFull,
		Recorder:    rec,
		Telemetry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 20000, 1, 11)
	res := e.Stop()
	checkShardedConservation(t, res)

	snap := reg.Snapshot()
	if got := snap["laps_dispatched_total"].(uint64); got != res.Dispatched {
		t.Fatalf("laps_dispatched_total %d != Dispatched %d", got, res.Dispatched)
	}
	if got := histCount(t, snap, "laps_packet_latency_seconds"); got != res.Processed {
		t.Fatalf("latency samples %d != Processed %d", got, res.Processed)
	}
	if got := snap["laps_snapshots_total"].(uint64); got != res.Snapshots {
		t.Fatalf("laps_snapshots_total %d != Snapshots %d", got, res.Snapshots)
	}
	ends := rec.Count(obs.EvFenceEnd)
	if got := histCount(t, snap, "laps_fence_hold_seconds"); got != ends {
		t.Fatalf("fence-hold samples %d != EvFenceEnd count %d", got, ends)
	}
	if starts := rec.Count(obs.EvFenceStart); starts < ends {
		t.Fatalf("fence spans unbalanced: %d starts < %d ends", starts, ends)
	}
	if res.Migrations == 0 {
		t.Fatal("snapshot flap produced no migrations")
	}

	t.Run("stranded at Stop", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		var k lateKill
		e, err := NewSharded(k.rig(Config{Workers: 2, Dispatchers: 2, RingCap: 64, Batch: 8,
			Sched: snapHash{n: 2}, Policy: BlockWhenFull, Telemetry: reg}))
		if err != nil {
			t.Fatal(err)
		}
		k.ring.Store(e.workers[1].rings[1]) // the last ring Stop closes
		e.Start(context.Background())
		for i := 0; i < 128; i++ {
			e.Ingest(&packet.Packet{ID: uint64(i + 1), Flow: fkey(i % 32), FlowSeq: uint64(i / 32)})
		}
		checkStrandedScrape(t, reg, e.Stop())
	})
}
