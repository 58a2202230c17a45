package runtime

import (
	"context"
	"math/rand"
	stdrt "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/trace"
)

// snapHash is the minimal SnapshotProvider: a static hash scheduler
// whose forwarding state never changes (generation stays 0).
type snapHash struct{ n int }

func (h snapHash) Name() string { return "snaphash" }
func (h snapHash) Target(p *packet.Packet, _ npsim.View) int {
	return int(crc.FlowHash(p.Flow)) % h.n
}
func (h snapHash) Generation() uint64                  { return 0 }
func (h snapHash) Snapshot(_ sim.Time) npsim.Forwarder { return offsetFwd{n: h.n} }

// snapFlap re-homes every flow each period control-plane observations —
// a migration storm delivered through the real snapshot pipeline, so
// shards only ever see it via published views.
type snapFlap struct {
	n, period int
	count     int
	gen       uint64
}

func (f *snapFlap) Name() string { return "snapflap" }
func (f *snapFlap) Target(p *packet.Packet, _ npsim.View) int {
	f.count++
	if f.count%f.period == 0 {
		f.gen++
	}
	return (int(crc.FlowHash(p.Flow)) + int(f.gen)) % f.n
}
func (f *snapFlap) Generation() uint64 { return f.gen }
func (f *snapFlap) Snapshot(_ sim.Time) npsim.Forwarder {
	return offsetFwd{n: f.n, off: int(f.gen)}
}

type offsetFwd struct{ n, off int }

func (o offsetFwd) Forward(p *packet.Packet) int {
	return (int(crc.FlowHash(p.Flow)) + o.off) % o.n
}

// feedSharded generates n packets over the given services with correct
// per-flow sequence numbers, ingesting each one.
func feedSharded(tb testing.TB, e *Sharded, n int, services int, seed uint64) {
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
			Arrival: e.Now(),
			FlowSeq: seqs[rec.Flow],
		}
		seqs[rec.Flow]++
		e.Ingest(p)
		if i%feedYield == feedYield-1 {
			stdrt.Gosched()
		}
	}
}

func checkShardedConservation(t *testing.T, res *Result) {
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

// TestShardedFencedOrderingStorm is the sharded tier-1 stress test: a
// migration storm delivered exclusively through snapshot publishes,
// four flow-affine shards, per-shard fencing. Zero out-of-order
// departures is an absolute invariant (runs under -race in CI).
func TestShardedFencedOrderingStorm(t *testing.T) {
	e, err := NewSharded(Config{
		Workers:     4,
		Dispatchers: 4,
		RingCap:     64,
		Batch:       16,
		Sched:       &snapFlap{n: 4, period: 400},
		Policy:      BlockWhenFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 120000, 2, 42)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("fencing failed: %d out-of-order departures", res.OutOfOrder)
	}
	if res.Dropped != 0 {
		t.Fatalf("block-mode run dropped %d packets", res.Dropped)
	}
	if res.Migrations == 0 {
		t.Fatal("snapshot-driven migration storm produced no migrations")
	}
	if res.Snapshots < 2 {
		t.Fatalf("flapping generation published only %d snapshots", res.Snapshots)
	}
	if res.Dispatchers != 4 {
		t.Fatalf("result reports %d dispatchers, want 4", res.Dispatchers)
	}
	t.Logf("sharded storm: dispatched=%d migrations=%d fenced=%d snapshots=%d feedbackDropped=%d",
		res.Dispatched, res.Migrations, res.Fenced, res.Snapshots, res.FeedbackDropped)
}

// TestShardedLAPSLive drives the real LAPS scheduler behind the
// control plane: observations feed AFD and the imbalance logic, and
// every decision reaches the shards as a published ForwardingView.
func TestShardedLAPSLive(t *testing.T) {
	l := core.New(core.Config{
		TotalCores: 4,
		Services:   2,
		AFD:        afd.Config{Seed: 7},
	})
	e, err := NewSharded(Config{
		Workers:     4,
		Dispatchers: 2,
		RingCap:     64,
		Batch:       8,
		Sched:       l,
		Policy:      BlockWhenFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 60000, 2, 7)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("LAPS sharded run reordered %d packets despite fencing", res.OutOfOrder)
	}
	if res.Snapshots == 0 {
		t.Fatal("no forwarding view was ever published")
	}
}

// TestLAPSMigratesOnSampledFeedback: both lane owners train core.LAPS on
// the lane's sample — one weighted observation per feedbackStride
// packets, on the control plane for Sharded and inline for Engine — and
// it must still do its job. Service 1 owns three workers and carries two
// elephants among mice; the workers spin for the modeled service time
// and the feeder blocks on full rings, so an elephant's worker stays
// over LAPS's high threshold while its neighbours idle. LAPS has to find
// the elephant in its AFC and migrate it, through a fence (and, on
// Sharded, a published view): some migrations, no reordering, nothing
// lost. Scheduler migrations per run of this stream, over batches of 20
// runs on a 2-vCPU host:
//
//   - Sharded: 56..89, median 77, fed every run (before sampled
//     feedback); 45..81, median 65, on the sample.
//   - Engine: 142..216, medians 176.5 and 176 in two batches, trained on
//     every run (before the inline owner sampled); 142..282, medians 170
//     and 193.5, on the sample.
func TestLAPSMigratesOnSampledFeedback(t *testing.T) {
	for _, owner := range migrationOwners {
		t.Run(owner.name, func(t *testing.T) {
			l := migrationLAPS()
			offer, stop, err := owner.start(migrationConfig(l, WorkSpin))
			if err != nil {
				t.Fatal(err)
			}
			feedMigrationStream(offer)
			res := stop()
			checkShardedConservation(t, res)
			if res.Dropped != 0 || res.OutOfOrder != 0 {
				t.Fatalf("dropped %d, out of order %d", res.Dropped, res.OutOfOrder)
			}
			if st := l.Stats(); st.Migrations == 0 || res.Migrations == 0 {
				t.Fatalf("LAPS migrated %d flows and the lane carried out %d: the sample never reached a migration",
					st.Migrations, res.Migrations)
			}
			t.Logf("scheduler migrations %d, lane migrations %d, fenced %d, snapshots %d, feedback dropped %d",
				l.Stats().Migrations, res.Migrations, res.Fenced, res.Snapshots, res.FeedbackDropped)
		})
	}
}

// migrationRingCap is the migration stream's ring capacity.
const migrationRingCap = 64

// migrationOwners builds each lane owner on a config and starts it,
// returning its per-packet entry point and its Stop.
var migrationOwners = []struct {
	name  string
	start func(Config) (func(*packet.Packet) bool, func() *Result, error)
}{
	{"engine", func(cfg Config) (func(*packet.Packet) bool, func() *Result, error) {
		e, err := New(cfg)
		if err != nil {
			return nil, nil, err
		}
		e.Start(context.Background())
		return e.Dispatch, e.Stop, nil
	}},
	{"sharded", func(cfg Config) (func(*packet.Packet) bool, func() *Result, error) {
		cfg.Dispatchers = 2
		e, err := NewSharded(cfg)
		if err != nil {
			return nil, nil, err
		}
		e.Start(context.Background())
		return e.Ingest, e.Stop, nil
	}},
}

// migrationLAPS is the migration stream's scheduler: service 1 on three
// of four workers.
func migrationLAPS() *core.LAPS {
	return core.New(core.Config{
		TotalCores:    4,
		Services:      2,
		InitialShares: []int{1, 3},
		// One lane's ring is all a single flow can fill; on Sharded
		// the default (3/4 of both lanes' rings) would be out of an
		// elephant's reach.
		HighThresh: migrationRingCap / 2,
		AFD:        afd.Config{Seed: 7},
	})
}

// migrationConfig is the migration stream's engine config on l.
func migrationConfig(l *core.LAPS, work WorkKind) Config {
	return Config{
		Workers: 4,
		RingCap: migrationRingCap,
		Batch:   8,
		Sched:   l,
		Policy:  BlockWhenFull,
		Work:    work,
	}
}

// feedMigrationStream offers the migration stream: 40000 packets, two
// service-1 elephants at 30 % each, service-1 mice over 2000 flows, and
// service-0 mice over 500, with per-flow sequence numbers.
func feedMigrationStream(offer func(*packet.Packet) bool) {
	rng := rand.New(rand.NewSource(23))
	seqs := make(map[packet.FlowKey]uint64)
	for i := 0; i < 40000; i++ {
		p := &packet.Packet{ID: uint64(i + 1), Service: 1, Size: 64}
		switch r := rng.Intn(100); {
		case r < 60:
			p.Flow = fkey(r % 2) // the two elephants, 30 % of packets each
		case r < 90:
			p.Flow = fkey(2 + rng.Intn(2000))
		default:
			p.Flow, p.Service = fkey(5000+rng.Intn(500)), 0
		}
		p.FlowSeq = seqs[p.Flow]
		seqs[p.Flow]++
		offer(p)
	}
}

// flowLog records per-flow retirement sequences across workers.
type flowLog struct {
	mu   sync.Mutex
	seqs map[packet.FlowKey][]uint64
}

func newFlowLog() *flowLog { return &flowLog{seqs: make(map[packet.FlowKey][]uint64)} }

func (fl *flowLog) handler(_ int, p *packet.Packet) {
	fl.mu.Lock()
	fl.seqs[p.Flow] = append(fl.seqs[p.Flow], p.FlowSeq)
	fl.mu.Unlock()
}

// TestShardedConformanceAcrossShardCounts is the cross-shard
// conformance gate: the same Traffic+Seed at Dispatchers=1 and
// Dispatchers=4 must retire identical per-flow packet sequences —
// every flow complete, every flow in strict FlowSeq order (OOO==0),
// zero drops — under fencing and a snapshot-driven migration storm.
func TestShardedConformanceAcrossShardCounts(t *testing.T) {
	run := func(shards int) (*Result, *flowLog) {
		fl := newFlowLog()
		e, err := NewSharded(Config{
			Workers:     4,
			Dispatchers: shards,
			RingCap:     64,
			Batch:       16,
			Sched:       &snapFlap{n: 4, period: 300},
			Policy:      BlockWhenFull,
			Handler:     fl.handler,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start(context.Background())
		feedSharded(t, e, 40000, 2, 99)
		res := e.Stop()
		checkShardedConservation(t, res)
		if res.Dropped != 0 {
			t.Fatalf("Dispatchers=%d dropped %d packets in block mode", shards, res.Dropped)
		}
		if res.OutOfOrder != 0 {
			t.Fatalf("Dispatchers=%d reordered %d packets", shards, res.OutOfOrder)
		}
		return res, fl
	}
	res1, log1 := run(1)
	res4, log4 := run(4)
	if res1.Processed != res4.Processed {
		t.Fatalf("retired counts differ: Dispatchers=1 %d vs Dispatchers=4 %d",
			res1.Processed, res4.Processed)
	}
	if len(log1.seqs) != len(log4.seqs) {
		t.Fatalf("flow sets differ: %d vs %d flows", len(log1.seqs), len(log4.seqs))
	}
	for f, s1 := range log1.seqs {
		s4, ok := log4.seqs[f]
		if !ok {
			t.Fatalf("flow %v retired at Dispatchers=1 but missing at 4", f)
		}
		if len(s1) != len(s4) {
			t.Fatalf("flow %v: %d packets at Dispatchers=1 vs %d at 4", f, len(s1), len(s4))
		}
		for i := range s1 {
			// Fencing makes each run's per-flow retirement strictly
			// FlowSeq-ordered, so both must be the identity sequence.
			if s1[i] != uint64(i) || s4[i] != uint64(i) {
				t.Fatalf("flow %v retired out of sequence at position %d: %d (D=1) / %d (D=4)",
					f, i, s1[i], s4[i])
			}
		}
	}
}

// TestIngestBurstShardsLikeIngest: the two ingress entry points must
// agree on which shard a flow belongs to even when the caller has not
// primed the packets' hashes — IngestBurst used to partition on the raw
// (zero) Hash field, so an unprimed flow reached shard 0 through it and
// shard FlowHash%N through Ingest: one flow, two lanes, no fence between
// them. The same unprimed flows go alternately through both under a
// migration storm; each must stay whole, in order, and resident in
// exactly its own shard's fence table.
func TestIngestBurstShardsLikeIngest(t *testing.T) {
	const flows, rounds, shards = 64, 600, 4
	fl := newFlowLog()
	var unprimed atomic.Uint64
	e, err := NewSharded(Config{
		Workers:     4,
		Dispatchers: shards,
		RingCap:     64,
		Batch:       16,
		Sched:       &snapFlap{n: 4, period: 200},
		Policy:      BlockWhenFull,
		Handler: func(w int, p *packet.Packet) {
			if !p.HashOK {
				unprimed.Add(1)
			}
			fl.handler(w, p)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	for r := 0; r < rounds; r++ {
		ps := make([]*packet.Packet, flows)
		for i := range ps {
			ps[i] = &packet.Packet{ID: uint64(r*flows + i + 1), Flow: fkey(i), Size: 64, FlowSeq: uint64(r)}
		}
		if r%2 == 0 {
			e.IngestBurst(ps)
		} else {
			for _, p := range ps {
				e.Ingest(p)
			}
		}
	}
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.Dropped != 0 || res.OutOfOrder != 0 || res.Processed != flows*rounds {
		t.Fatalf("processed %d dropped %d ooo %d, want %d, 0, 0", res.Processed, res.Dropped, res.OutOfOrder, flows*rounds)
	}
	if n := unprimed.Load(); n != 0 {
		t.Fatalf("%d packets reached a worker without a cached hash", n)
	}
	for i := 0; i < flows; i++ {
		f := fkey(i)
		seqs := fl.seqs[f]
		if len(seqs) != rounds {
			t.Fatalf("flow %d retired %d packets, want %d", i, len(seqs), rounds)
		}
		for k, s := range seqs {
			if s != uint64(k) {
				t.Fatalf("flow %d retired seq %d at position %d", i, s, k)
			}
		}
		h := crc.FlowHash(f)
		for si, sh := range e.shards {
			if got, want := sh.flows.Has(f, h), si == int(h)%shards; got != want {
				t.Fatalf("flow %d (hash %d): in shard %d's fence table = %v, want %v", i, h, si, got, want)
			}
		}
	}
}

// TestShardedChaosRecovery is the multi-shard chaos gate: seeded
// stalls plus a kill mid-run with Dispatchers>1, under Block policy so
// nothing may legitimately drop. Each shard drains its own ring of the
// dead worker; ordering and conservation stay absolute.
func TestShardedChaosRecovery(t *testing.T) {
	const window = 80 * time.Millisecond
	plan := &FaultPlan{Faults: []Fault{
		{Worker: 1, After: 1500, Kind: FaultStall, Duration: 800 * time.Millisecond},
		{Worker: 3, After: 2000, Kind: FaultKill},
	}}
	rec := obs.NewRecorder(1 << 14)
	e, err := NewSharded(Config{
		Workers:      4,
		Dispatchers:  4,
		RingCap:      64,
		Batch:        16,
		Sched:        snapHash{n: 4},
		Policy:       BlockWhenFull,
		Faults:       plan,
		DetectWindow: window,
		Recorder:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 60000, 2, 42)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.Dropped != 0 {
		t.Fatalf("block-mode chaos run dropped %d packets (stranded %d)", res.Dropped, res.Stranded)
	}
	if res.OutOfOrder != 0 {
		t.Fatalf("recovery reordered %d packets", res.OutOfOrder)
	}
	if res.WorkerDeaths < 2 {
		t.Fatalf("expected the kill and the stall quarantine, got %d deaths", res.WorkerDeaths)
	}
	if res.WorkerStalls == 0 {
		t.Fatal("no stall detection despite an over-window stall with backlog")
	}
	if !res.Workers[3].Dead {
		t.Fatal("killed worker 3 not marked dead")
	}
	if res.Reinjected == 0 || res.Recovered == 0 {
		t.Fatalf("recovery moved nothing: reinjected=%d recovered flows=%d",
			res.Reinjected, res.Recovered)
	}
	if res.MaxDetect <= 0 || res.MaxDetect > 3*window {
		t.Fatalf("detection latency %v outside (0, %v]", res.MaxDetect, 3*window)
	}
	if rec.Count(obs.EvWorkerDead) != res.WorkerDeaths {
		t.Fatalf("recorder has %d EvWorkerDead, result says %d",
			rec.Count(obs.EvWorkerDead), res.WorkerDeaths)
	}
	// Every shard drains its own ring per quarantined worker, so the
	// recovery events multiply by the shard count.
	if rec.Count(obs.EvRecovery) < res.WorkerDeaths {
		t.Fatalf("got %d EvRecovery for %d deaths across 4 shards",
			rec.Count(obs.EvRecovery), res.WorkerDeaths)
	}
	t.Logf("sharded chaos: deaths=%d stalls=%d reinjected=%d flows=%d maxDetect=%v",
		res.WorkerDeaths, res.WorkerStalls, res.Reinjected, res.Recovered, res.MaxDetect)
}

// TestShardedDropPolicy: a slow worker behind tiny rings under
// DropWhenFull must shed load with exact accounting.
func TestShardedDropPolicy(t *testing.T) {
	e, err := NewSharded(Config{
		Workers:     1,
		Dispatchers: 2,
		RingCap:     2,
		Batch:       2,
		IngressCap:  8,
		Sched:       snapHash{n: 1},
		Work:        WorkSleep,
		WorkFactor:  0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 3000, 1, 5)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.Dropped == 0 {
		t.Fatal("tiny rings with a slow worker dropped nothing")
	}
}

// TestShardedTelemetry checks recorder integration: snapshot publishes
// land in the recorder (count matching the result), and the merged
// event stream is timestamp-ordered.
func TestShardedTelemetry(t *testing.T) {
	rec := obs.NewRecorder(1 << 14)
	e, err := NewSharded(Config{
		Workers:         2,
		Dispatchers:     2,
		RingCap:         64,
		Batch:           8,
		Sched:           &snapFlap{n: 2, period: 200},
		Policy:          BlockWhenFull,
		Recorder:        rec,
		MetricsInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 20000, 1, 11)
	time.Sleep(3 * time.Millisecond)
	res := e.Stop()
	checkShardedConservation(t, res)
	if got := rec.Count(obs.EvSnapshotPublish); got != res.Snapshots {
		t.Fatalf("recorder has %d EvSnapshotPublish, result says %d", got, res.Snapshots)
	}
	if res.Series == nil || res.Series.Len() == 0 {
		t.Fatal("metrics interval set but no series sampled")
	}
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("event %d out of timestamp order after merge", i)
		}
	}
}

// TestShardedValidation covers construction errors on both engines.
func TestShardedValidation(t *testing.T) {
	if _, err := New(Config{Workers: 1, Sched: snapHash{n: 1}, Dispatchers: 2}); err == nil {
		t.Fatal("legacy engine accepted Dispatchers > 0")
	}
	if _, err := NewSharded(Config{Workers: 1, Sched: snapHash{n: 1}}); err == nil {
		t.Fatal("sharded engine accepted Dispatchers < 1")
	}
	if _, err := NewSharded(Config{Workers: 0, Dispatchers: 1, Sched: snapHash{n: 1}}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewSharded(Config{Workers: 1, Dispatchers: 1}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	// A scheduler without snapshot support cannot ride the sharded path.
	if _, err := NewSharded(Config{Workers: 1, Dispatchers: 1, Sched: hashSched{n: 1}}); err == nil {
		t.Fatal("non-SnapshotProvider scheduler accepted by the sharded engine")
	}
}

// recSched records everything a lane owner shows a scheduler: the
// descriptor, the run's weight and the view's clock. Called from the
// owner's scheduling goroutine only (Sharded's control plane, Engine's
// dispatcher); read after Stop.
type recSched struct {
	t     *testing.T
	pkts  []packet.Packet
	ns    []int
	clock []sim.Time
}

func (r *recSched) Name() string                              { return "rec" }
func (r *recSched) Target(p *packet.Packet, v npsim.View) int { return r.TargetN(p, 1, v) }
func (r *recSched) TargetN(p *packet.Packet, n int, v npsim.View) int {
	r.pkts = append(r.pkts, *p)
	r.ns = append(r.ns, n)
	r.clock = append(r.clock, v.Now())
	if v.NumCores() != 2 || v.QueueCap() != 256 || v.QueueLen(0) < 0 || v.IdleFor(1) < 0 {
		r.t.Errorf("control-plane view lost the engine's queue state: cores %d cap %d", v.NumCores(), v.QueueCap())
	}
	return 0
}
func (r *recSched) Generation() uint64                  { return 0 }
func (r *recSched) Snapshot(_ sim.Time) npsim.Forwarder { return offsetFwd{n: 2} }

// TestShardedFeedbackRecord pins the shard → control plane hand-off: a
// scheduler there sees exactly the fields a feedback record carries —
// flow, primed hash, service, size — with the sampler's weight, every
// dispatched packet is accounted for as observed or FeedbackDropped to
// within the sampler's feedbackStride, and the view's clock is one
// reading per drained batch.
func TestShardedFeedbackRecord(t *testing.T) {
	const (
		bursts   = 6
		perBurst = 16 // flows per burst, two packets each
	)
	run := func(feedbackCap int, gap time.Duration) (*recSched, *Result) {
		sched := &recSched{t: t}
		e, err := NewSharded(Config{Workers: 2, Dispatchers: 1, RingCap: 256, Batch: 32,
			FeedbackCap: feedbackCap, Sched: sched, Policy: BlockWhenFull})
		if err != nil {
			t.Fatal(err)
		}
		e.Start(context.Background())
		for b := 0; b < bursts; b++ {
			ps := make([]*packet.Packet, 0, 2*perBurst)
			for seq := 0; seq < 2; seq++ {
				for i := b * perBurst; i < (b+1)*perBurst; i++ {
					p := &packet.Packet{ID: uint64(len(ps) + 1), Flow: fkey(i), Service: packet.ServiceID(i % 4),
						Size: 64 + i, FlowSeq: uint64(seq)}
					if i%2 == 0 {
						crc.Prime(p) // odd flows arrive unprimed: the shard hashes them
					}
					ps = append(ps, p)
				}
			}
			e.IngestBurst(ps)
			time.Sleep(gap)
		}
		res := e.Stop()
		checkShardedConservation(t, res)
		if res.Dropped != 0 || res.OutOfOrder != 0 {
			t.Fatalf("dropped %d, out of order %d", res.Dropped, res.OutOfOrder)
		}
		var observed uint64
		for k, p := range sched.pkts {
			i := int(p.Flow.SrcIP)
			if p.Flow != fkey(i) || p.Service != packet.ServiceID(i%4) || p.Size != 64+i {
				t.Fatalf("record %d: flow %v service %d size %d does not match dispatched flow %d", k, p.Flow, p.Service, p.Size, i)
			}
			if !p.HashOK || p.Hash != crc.FlowHash(p.Flow) {
				t.Fatalf("record %d: hash %d (primed %v), want %d", k, p.Hash, p.HashOK, crc.FlowHash(p.Flow))
			}
			if p.ID != 0 || p.FlowSeq != 0 || p.Arrival != 0 {
				t.Fatalf("record %d carries per-packet fields (id %d seq %d): a feedback record has none", k, p.ID, p.FlowSeq)
			}
			if sched.ns[k] <= 0 {
				t.Fatalf("record %d stands for %d packets", k, sched.ns[k])
			}
			observed += uint64(sched.ns[k])
		}
		// One shard, so one sampler: the weights it handed out, delivered
		// or dropped, are within feedbackStride of the packets it saw.
		if d := int64(observed+res.FeedbackDropped) - int64(res.Dispatched); d <= -feedbackStride || d >= feedbackStride {
			t.Fatalf("scheduler observed %d packets + %d feedback-dropped, want within %d of dispatched %d",
				observed, res.FeedbackDropped, feedbackStride, res.Dispatched)
		}
		return sched, res
	}

	// Lossless: every burst is one ingress batch, so one published group
	// of records, and popBatch (Batch = 2*perBurst) never splits a
	// group: each burst's records share one clock reading. A burst is
	// four strata of the sampler, so it always yields records.
	sched, res := run(0, 2*time.Millisecond)
	if res.FeedbackDropped != 0 || len(sched.pkts) == 0 {
		t.Fatalf("lossless run: %d records, %d feedback drops, want some and 0", len(sched.pkts), res.FeedbackDropped)
	}
	burstOf := func(k int) int { return int(sched.pkts[k].Flow.SrcIP) / perBurst }
	readings, seen := 1, 1
	for k := 1; k < len(sched.pkts); k++ {
		if sched.clock[k] < sched.clock[k-1] {
			t.Fatalf("view clock went backwards at record %d: %d after %d", k, sched.clock[k], sched.clock[k-1])
		}
		if burstOf(k) != burstOf(k-1) {
			seen++
		}
		if sched.clock[k] != sched.clock[k-1] {
			if burstOf(k) == burstOf(k-1) {
				t.Fatalf("record %d of burst %d saw clock %d, the one before it saw %d", k, burstOf(k), sched.clock[k], sched.clock[k-1])
			}
			readings++
		}
	}
	if seen != bursts {
		t.Fatalf("records from %d bursts, want all %d", seen, bursts)
	}
	// At most two bursts fit one popBatch, so at least bursts/2 readings.
	if readings < bursts/2 {
		t.Fatalf("%d bursts drained under %d clock readings: the clock is not advancing between batches", bursts, readings)
	}

	// A two-slot feedback ring overflows on every burst (a burst is one
	// chunk, published at its end, and carries four picks): the dropped
	// weight is counted, the rest arrives intact (checked in run).
	if _, res := run(2, 0); res.FeedbackDropped == 0 {
		t.Fatal("two-slot feedback ring dropped nothing")
	}
}

// TestObsRecSize keeps the feedback record from quietly growing back
// into a descriptor copy: it is written and read once per sampled run.
func TestObsRecSize(t *testing.T) {
	if sz := unsafe.Sizeof(obsRec{}); sz > 32 {
		t.Fatalf("obsRec is %d bytes, want <= 32", sz)
	}
}
