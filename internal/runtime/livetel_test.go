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

	"laps/internal/npsim"
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

// TestEngineTelemetryReconciles runs an owner through a migration storm
// plus a worker kill with the full telemetry stack on, then cross-checks
// every histogram against Result and the recorder.
func TestEngineTelemetryReconciles(t *testing.T)  { telemetryReconciles(t, engineRow) }
func TestShardedTelemetryReconciles(t *testing.T) { telemetryReconciles(t, shardedRows) }

func telemetryReconciles(t *testing.T, rows []owner) {
	each(t, rows, func(t *testing.T, o owner) {
		reg := telemetry.NewRegistry()
		rec := obs.NewRecorder(1 << 15)
		plan := &FaultPlan{Faults: []Fault{{Worker: 3, After: 2000, Kind: FaultKill}}}
		r := o.start(t, Config{
			Workers:      4,
			RingCap:      64,
			Batch:        16,
			Sched:        pick[npsim.Scheduler](o, &flapSched{n: 4, period: 700}, &snapFlap{n: 4, period: 400}),
			Policy:       BlockWhenFull,
			Faults:       plan,
			DetectWindow: 80 * time.Millisecond,
			Recorder:     rec,
			Telemetry:    reg,
		})
		feed(t, r.offer, r.Now, 120000, 2, 42)
		res := r.stop()
		checkConservation(t, res)
		checkScrape(t, reg, rec, res, len(r.lanes))
		if got, ok := reg.Snapshot()["laps_snapshots_total"].(uint64); o.shards > 0 && (!ok || got != res.Snapshots) {
			t.Fatalf("laps_snapshots_total %d != Snapshots %d", got, res.Snapshots)
		}
	})

	t.Run("stranded at Stop", func(t *testing.T) {
		each(t, rows, func(t *testing.T, o owner) {
			reg := telemetry.NewRegistry()
			var k lateKill
			r, err := o.build(k.rig(Config{Workers: 2, RingCap: 64, Batch: 8,
				Sched: pick[npsim.Scheduler](o, hashSched{n: 2}, snapHash{n: 2}), Policy: BlockWhenFull, Telemetry: reg}))
			if err != nil {
				t.Fatal(err)
			}
			k.ring.Store(r.workers[1].rings[len(r.lanes)-1]) // the last ring Stop closes
			r.launch(context.Background())
			// At most 64 packets reach worker 1, so its ring never fills
			// behind the held batch.
			for i := 0; i < 64; i++ {
				r.offer(&packet.Packet{ID: uint64(i + 1), Flow: fkey(i % 16), FlowSeq: uint64(i / 16)})
			}
			checkStrandedScrape(t, reg, r.stop())
		})
	})
}

// checkScrape cross-checks a storm-and-kill run's registry against its
// Result and recorder; lanes is how many lanes drained each dead worker.
func checkScrape(t *testing.T, reg *telemetry.Registry, rec *obs.Recorder, res *Result, lanes int) {
	t.Helper()
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
	if res.Migrations == 0 {
		t.Fatal("migration storm produced no migrations")
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
	// One recovery span per quarantine on every lane.
	drains := res.WorkerDeaths * uint64(lanes)
	if got := histCount(t, snap, "laps_recovery_seconds"); got != drains {
		t.Fatalf("recovery samples %d != WorkerDeaths %d × %d lanes", got, res.WorkerDeaths, lanes)
	}
	if rec.Count(obs.EvRecoveryStart) != drains || rec.Count(obs.EvRecoveryEnd) != drains {
		t.Fatalf("recovery spans unbalanced: %d starts, %d ends, %d deaths on %d lanes",
			rec.Count(obs.EvRecoveryStart), rec.Count(obs.EvRecoveryEnd), res.WorkerDeaths, lanes)
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
}
