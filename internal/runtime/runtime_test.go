package runtime

import (
	"context"
	stdrt "runtime"
	"strings"
	"testing"
	"time"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/trace"
)

// hashSched pins every flow to its hash bucket — never migrates.
type hashSched struct{ n int }

func (h hashSched) Name() string { return "hash" }
func (h hashSched) Target(p *packet.Packet, _ npsim.View) int {
	return int(crc.FlowHash(p.Flow)) % h.n
}

// flapSched deliberately re-homes every flow each period packets — a
// migration storm that would shred ordering without fencing.
type flapSched struct {
	n, period int
	count     int
}

func (f *flapSched) Name() string { return "flap" }
func (f *flapSched) Target(p *packet.Packet, _ npsim.View) int {
	f.count++
	return (int(crc.FlowHash(p.Flow)) + f.count/f.period) % f.n
}

// feedYield bounds how long a feed loop runs between scheduler yields.
// On a single-CPU host a tight dispatch loop can otherwise monopolize
// the processor until preemption, filling every ring before a worker
// gets a slice — in drop mode that starves the migration/fence paths
// the storm tests exist to exercise (a migration is only counted when
// the migrated push lands, so a fully-saturated run can report zero).
const feedYield = 64

// owner is one way to run the lane: an Engine (shards 0) or a Sharded
// engine on that many shards. The tests that hold for every owner run
// once per row of owners; each owner-generic case runs its engine row
// under the Engine test's name and its sharded rows under the Sharded
// test's, where the case had one test per owner.
type owner struct {
	name   string
	shards int
}

var (
	owners      = []owner{{"engine", 0}, {"sharded", 2}, {"sharded1", 1}}
	engineRow   = owners[:1]
	shardedRows = owners[1:]
)

// ownerRig is an owner built on a Config: its per-packet and burst
// entry points, its Stop, and (through the plane) Now and the workers.
// flush publishes what the entry points staged: Engine stages on the
// caller's goroutine, a shard on its own.
type ownerRig struct {
	*plane
	offer  func(*packet.Packet) bool
	burst  func([]*packet.Packet) int
	flush  func()
	launch func(context.Context)
	stop   func() *Result
}

func (o owner) build(cfg Config) (*ownerRig, error) {
	if o.shards == 0 {
		e, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return &ownerRig{e.plane, e.Dispatch, e.DispatchBurst, e.Flush, e.Start, e.Stop}, nil
	}
	cfg.Dispatchers = o.shards
	e, err := NewSharded(cfg)
	if err != nil {
		return nil, err
	}
	return &ownerRig{e.plane, e.Ingest, e.IngestBurst, func() {}, e.Start, e.Stop}, nil
}

// start builds o on cfg and starts it.
func (o owner) start(tb testing.TB, cfg Config) *ownerRig {
	tb.Helper()
	r, err := o.build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r.launch(context.Background())
	return r
}

// each runs body as one subtest per row.
func each(t *testing.T, rows []owner, body func(t *testing.T, o owner)) {
	for _, o := range rows {
		t.Run(o.name, func(t *testing.T) { body(t, o) })
	}
}

// pick is engine on the engine row and sharded on the others. The
// engine rows keep the schedulers that publish no view (hashSched,
// flapSched: decide's plain branch), which Sharded cannot run; the
// sharded rows run their view-publishing twins (snapHash, snapFlap).
func pick[T any](o owner, engine, sharded T) T {
	if o.shards == 0 {
		return engine
	}
	return sharded
}

// feed generates n packets over the given services with correct
// per-flow sequence numbers, offering each one.
func feed(tb testing.TB, offer func(*packet.Packet) bool, now func() sim.Time, n int, services int, seed uint64) {
	tb.Helper()
	srcs := make([]trace.Source, services)
	for s := range srcs {
		srcs[s] = trace.NewSynthetic(trace.SynthConfig{
			Name: "rt", Flows: 500, Skew: 1.1, Seed: seed + uint64(s)*977,
		})
	}
	seqs := make(map[packet.FlowKey]uint64, 4096)
	for i := 0; i < n; i++ {
		svc := packet.ServiceID(i % services)
		rec, _ := srcs[svc].Next()
		p := &packet.Packet{
			ID:      uint64(i + 1),
			Flow:    rec.Flow,
			Service: svc,
			Size:    rec.Size,
			Arrival: now(),
			FlowSeq: seqs[rec.Flow],
		}
		seqs[rec.Flow]++
		offer(p)
		if i%feedYield == feedYield-1 {
			stdrt.Gosched()
		}
	}
}

func checkConservation(t *testing.T, res *Result) {
	t.Helper()
	if res.Processed+res.Dropped != res.Dispatched {
		t.Fatalf("conservation violated: processed %d + dropped %d != dispatched %d",
			res.Processed, res.Dropped, res.Dispatched)
	}
	var perW uint64
	for _, w := range res.Workers {
		perW += w.Processed
	}
	if perW != res.Processed {
		t.Fatalf("per-worker sum %d != processed %d", perW, res.Processed)
	}
}

// storm runs the tier-1 migration storm on o: >= 4 workers, 120k
// packets, every flow re-homed over and over (by the scheduler inline on
// Engine, through published views on Sharded), with the reorder
// tracker's budget set to budget and mem. The engine row drops on full
// rings, the sharded rows block. With fencing on, the ordering
// invariant is absolute: zero out-of-order departures, no matter how the
// goroutines interleave (it runs under -race in CI). Returns the Result
// for the caller's own checks.
func storm(t *testing.T, o owner, budget int, mem npsim.MemoryClass) *Result {
	t.Helper()
	r := o.start(t, Config{
		Workers:    4,
		RingCap:    64,
		Batch:      16,
		Sched:      pick[npsim.Scheduler](o, &flapSched{n: 4, period: 700}, &snapFlap{n: 4, period: 400}),
		Policy:     pick(o, DropWhenFull, BlockWhenFull),
		FlowBudget: budget,
		Memory:     mem,
	})
	feed(t, r.offer, r.Now, 120000, 2, 42)
	res := r.stop()
	checkConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("fencing failed: %d out-of-order departures", res.OutOfOrder)
	}
	if r.cfg.Policy == BlockWhenFull && res.Dropped != 0 {
		t.Fatalf("block-mode run dropped %d packets", res.Dropped)
	}
	if res.Migrations == 0 {
		t.Fatal("migration storm produced no migrations")
	}
	return res
}

func TestStressFencedOrdering(t *testing.T)       { each(t, engineRow, stressFencedOrdering) }
func TestShardedFencedOrderingStorm(t *testing.T) { each(t, shardedRows, stressFencedOrdering) }

func stressFencedOrdering(t *testing.T, o owner) {
	res := storm(t, o, 0, npsim.MemoryAuto)
	if res.Processed == 0 {
		t.Fatal("nothing processed")
	}
	if o.shards > 0 {
		if res.Snapshots < 2 {
			t.Fatalf("flapping generation published only %d snapshots", res.Snapshots)
		}
		if res.Dispatchers != o.shards {
			t.Fatalf("result reports %d dispatchers, want %d", res.Dispatchers, o.shards)
		}
	}
	t.Logf("dispatched=%d processed=%d dropped=%d migrations=%d fenced=%d snapshots=%d",
		res.Dispatched, res.Processed, res.Dropped, res.Migrations, res.Fenced, res.Snapshots)
}

// TestStressUnfenced runs the same storm without fencing. Reordering is
// then possible (and usually observed); the test asserts only that the
// accounting stays consistent — the OOO count is workload evidence, not
// an invariant.
func TestStressUnfenced(t *testing.T) {
	e, err := New(Config{
		Workers:        4,
		RingCap:        64,
		Batch:          16,
		Sched:          &flapSched{n: 4, period: 700},
		DisableFencing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e.Dispatch, e.Now, 120000, 2, 42)
	res := e.Stop()
	checkConservation(t, res)
	if res.Fenced != 0 {
		t.Fatalf("unfenced run reported %d fenced packets", res.Fenced)
	}
	t.Logf("unfenced: migrations=%d ooo=%d", res.Migrations, res.OutOfOrder)
}

// TestLAPSLive drives the real LAPS scheduler on live workers: inline on
// Engine, through the shards' training passes on Sharded, where sampled
// runs feed AFD and the imbalance logic and every decision reaches the
// shards as a published ForwardingView.
func TestLAPSLive(t *testing.T)        { each(t, engineRow, lapsLive) }
func TestShardedLAPSLive(t *testing.T) { each(t, shardedRows, lapsLive) }

func lapsLive(t *testing.T, o owner) {
	l := core.New(core.Config{
		TotalCores: 4,
		Services:   2,
		AFD:        afd.Config{Seed: 7},
	})
	r := o.start(t, Config{Workers: 4, RingCap: 64, Batch: 8, Sched: l,
		Policy: pick(o, DropWhenFull, BlockWhenFull)})
	feed(t, r.offer, r.Now, 60000, 2, 7)
	res := r.stop()
	checkConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("LAPS live run reordered %d packets despite fencing", res.OutOfOrder)
	}
	if o.shards > 0 && res.Snapshots == 0 {
		t.Fatal("no forwarding view was ever published")
	}
}

func TestBackpressureBlockDropsNothing(t *testing.T) {
	each(t, owners, func(t *testing.T, o owner) {
		r := o.start(t, Config{
			Workers:    2,
			RingCap:    8,
			Batch:      4,
			Sched:      pick[npsim.Scheduler](o, hashSched{n: 2}, snapHash{n: 2}),
			Policy:     BlockWhenFull,
			Work:       WorkSleep, // slow workers so the rings actually fill
			WorkFactor: 0.02,
		})
		feed(t, r.offer, r.Now, 5000, 1, 3)
		res := r.stop()
		checkConservation(t, res)
		if res.Dropped != 0 {
			t.Fatalf("block policy dropped %d packets", res.Dropped)
		}
		if res.Processed != res.Dispatched {
			t.Fatalf("processed %d != dispatched %d", res.Processed, res.Dispatched)
		}
	})
}

// TestDropPolicyCountsDrops: a slow worker behind tiny rings under
// DropWhenFull must shed load with exact accounting. On Engine every
// drop is a ring drop booked to the worker; Sharded also drops at its
// ingress rings, which belong to no worker.
func TestDropPolicyCountsDrops(t *testing.T) { each(t, engineRow, dropPolicyCountsDrops) }
func TestShardedDropPolicy(t *testing.T)     { each(t, shardedRows, dropPolicyCountsDrops) }

func dropPolicyCountsDrops(t *testing.T, o owner) {
	r := o.start(t, Config{
		Workers:    1,
		RingCap:    2,
		Batch:      2,
		IngressCap: 8,
		Sched:      pick[npsim.Scheduler](o, hashSched{n: 1}, snapHash{n: 1}),
		Work:       WorkSleep,
		WorkFactor: 0.1,
	})
	feed(t, r.offer, r.Now, 3000, 1, 5)
	res := r.stop()
	checkConservation(t, res)
	if res.Dropped == 0 {
		t.Fatal("tiny rings with a slow worker dropped nothing")
	}
	if o.shards == 0 && res.Workers[0].Dropped != res.Dropped {
		t.Fatalf("per-worker drops %d != total %d", res.Workers[0].Dropped, res.Dropped)
	}
}

// TestContextCancelUnblocks: a cancelled context converts blocking
// enqueues into drops so Stop always completes.
func TestContextCancelUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e, err := New(Config{
		Workers:    1,
		RingCap:    2,
		Batch:      2,
		Sched:      hashSched{n: 1},
		Policy:     BlockWhenFull,
		Work:       WorkSleep,
		WorkFactor: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(ctx)
	done := make(chan *Result, 1)
	go func() {
		// Not the dispatcher: cancel after a short delay.
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	go func() {
		feed(t, e.Dispatch, e.Now, 2000, 1, 9)
		done <- e.Stop()
	}()
	select {
	case res := <-done:
		checkConservation(t, res)
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not finish")
	}
}

// TestTelemetryWiring checks the recorder and sampler integration:
// drops and reorders land in the shared recorder, probes produce a
// series with one column per worker signal, the merged event stream is
// timestamp-ordered, and on Sharded every view publish is recorded.
func TestTelemetryWiring(t *testing.T)  { each(t, engineRow, telemetryWiring) }
func TestShardedTelemetry(t *testing.T) { each(t, shardedRows, telemetryWiring) }

func telemetryWiring(t *testing.T, o owner) {
	rec := obs.NewRecorder(1 << 14)
	r := o.start(t, Config{
		Workers:         2,
		RingCap:         4,
		Batch:           2,
		Sched:           pick[npsim.Scheduler](o, &flapSched{n: 2, period: 50}, &snapFlap{n: 2, period: 50}),
		DisableFencing:  true, // invite reordering so EvOOODepart fires
		Work:            WorkSleep,
		WorkFactor:      0.05,
		Recorder:        rec,
		MetricsInterval: time.Millisecond,
	})
	feed(t, r.offer, r.Now, 4000, 1, 11)
	time.Sleep(3 * time.Millisecond) // let the sampler tick at least once
	res := r.stop()
	checkConservation(t, res)
	if res.Series == nil || res.Series.Len() == 0 {
		t.Fatal("metrics interval set but no series sampled")
	}
	if res.Dropped > 0 && rec.Count(obs.EvDrop) == 0 {
		t.Fatal("drops occurred but no EvDrop recorded")
	}
	if res.OutOfOrder > 0 && rec.Count(obs.EvOOODepart) != res.OutOfOrder {
		t.Fatalf("recorder has %d EvOOODepart, result says %d",
			rec.Count(obs.EvOOODepart), res.OutOfOrder)
	}
	if got := rec.Count(obs.EvSnapshotPublish); o.shards > 0 && got != res.Snapshots {
		t.Fatalf("recorder has %d EvSnapshotPublish, result says %d", got, res.Snapshots)
	}
	// Merged worker events must be timestamp-ordered.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("event %d out of timestamp order after merge", i)
		}
	}
}

// TestBoundedReorderState exercises the capped egress tracker under
// heavy flow churn: memory stays bounded, accounting stays consistent.
func TestBoundedReorderState(t *testing.T) {
	e, err := New(Config{
		Workers:    2,
		RingCap:    64,
		Batch:      8,
		Sched:      hashSched{n: 2},
		FlowBudget: 64,
		Memory:     npsim.MemoryExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	// High-churn trace: far more distinct flows than the cap.
	src := trace.NewSynthetic(trace.SynthConfig{
		Name: "churn", Flows: 2000, Skew: 1.05, Churn: 0.5, Seed: 13,
	})
	seqs := make(map[packet.FlowKey]uint64)
	for i := 0; i < 30000; i++ {
		rec, _ := src.Next()
		p := &packet.Packet{ID: uint64(i + 1), Flow: rec.Flow, Size: rec.Size,
			FlowSeq: seqs[rec.Flow]}
		seqs[rec.Flow]++
		e.Dispatch(p)
	}
	res := e.Stop()
	checkConservation(t, res)
	if res.TrackedFlows > 64+reorderShards {
		t.Fatalf("tracker holds %d flows, cap was 64", res.TrackedFlows)
	}
	if res.EvictedFlows == 0 {
		t.Fatal("churny workload evicted nothing; cap not enforced")
	}
}

// TestConfigValidation covers construction errors on every owner, and
// each constructor's guard against the other's mode.
func TestConfigValidation(t *testing.T)  { each(t, engineRow, configValidation) }
func TestShardedValidation(t *testing.T) { each(t, shardedRows, configValidation) }

func configValidation(t *testing.T, o owner) {
	if _, err := o.build(Config{Workers: 0, Sched: snapHash{n: 1}}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := o.build(Config{Workers: 1}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if o.shards == 0 {
		if _, err := New(Config{Workers: 1, Sched: snapHash{n: 1}, Dispatchers: 2}); err == nil {
			t.Fatal("legacy engine accepted Dispatchers > 0")
		}
		return
	}
	if _, err := NewSharded(Config{Workers: 1, Sched: snapHash{n: 1}}); err == nil {
		t.Fatal("sharded engine accepted Dispatchers < 1")
	}
	// A scheduler without snapshot support cannot ride the sharded path.
	if _, err := o.build(Config{Workers: 1, Sched: hashSched{n: 1}}); err == nil {
		t.Fatal("non-SnapshotProvider scheduler accepted by the sharded engine")
	}
}

// TestDetectWindowCoversABatch: a worker's retired count ticks once per
// consumed batch, so under WorkSpin/WorkSleep a detection window no
// longer than one emulated batch would quarantine healthy workers. Such
// a window is a construction error on both engines, naming the window
// and the batch time. With the default services the slowest packet is
// VPN-in at 1500 bytes: 5.8 µs + 23 × 0.21 µs = 10.63 µs.
func TestDetectWindowCoversABatch(t *testing.T) {
	const slowest = 10630 * time.Nanosecond
	var flat [packet.NumServices]npsim.ServiceDef
	for i := range flat {
		flat[i] = npsim.ServiceDef{Name: "flat", Base: sim.Time(50 * time.Millisecond)}
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		reject time.Duration // the batch time the error must name; 0 = accepted
	}{
		{"spin, window equal to a batch", Config{Work: WorkSpin, DetectWindow: 32 * slowest}, 32 * slowest},
		{"spin, window just past a batch", Config{Work: WorkSpin, DetectWindow: 32*slowest + time.Microsecond}, 0},
		{"spin, batch of 8", Config{Work: WorkSpin, Batch: 8, DetectWindow: 32 * slowest}, 0},
		{"sleep, WorkFactor 4", Config{Work: WorkSleep, WorkFactor: 4, DetectWindow: time.Millisecond}, 128 * slowest},
		{"sleep, WorkFactor 4, wide window", Config{Work: WorkSleep, WorkFactor: 4, DetectWindow: 2 * time.Millisecond}, 0},
		{"custom services", Config{Work: WorkSleep, Batch: 4, Services: flat, DetectWindow: 150 * time.Millisecond}, 200 * time.Millisecond},
		{"no emulated work", Config{DetectWindow: time.Microsecond}, 0},
		{"monitor off", Config{Work: WorkSpin, WorkFactor: 100}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers, tc.cfg.Sched = 2, snapHash{n: 2}
			for _, o := range owners {
				switch _, err := o.build(tc.cfg); {
				case tc.reject == 0 && err != nil:
					t.Fatalf("rejected: %v", err)
				case tc.reject == 0:
				case err == nil:
					t.Fatalf("DetectWindow %v accepted against a %v batch", tc.cfg.DetectWindow, tc.reject)
				case !strings.Contains(err.Error(), tc.cfg.DetectWindow.String()) ||
					!strings.Contains(err.Error(), tc.reject.String()):
					t.Fatalf("error %q does not name the window %v and the batch %v", err, tc.cfg.DetectWindow, tc.reject)
				}
			}
		})
	}
}
