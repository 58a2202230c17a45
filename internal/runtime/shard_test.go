package runtime

import (
	"context"
	"math/rand"
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

// TestLAPSMigratesOnSampledFeedback: both lane owners train core.LAPS on
// the lane's sample — one weighted observation per feedbackStride
// packets, in a shard's training passes for Sharded and inline for
// Engine — and it must still do its job. Service 1 owns three workers
// and carries two elephants among mice; the workers spin for the
// modeled service time and the feeder blocks on full rings, so an
// elephant's worker stays over LAPS's high threshold while its
// neighbours idle. LAPS has to find the elephant in its AFC and migrate
// it, through a fence (and, on Sharded, a published view): some
// migrations, no reordering, nothing lost. Scheduler migrations per run
// of this stream, over batches of 20 runs on a 2-vCPU host:
//
//   - Sharded: 56..89, median 77, fed every run (before sampled
//     feedback); 45..81, median 65, on the sample; 12..24, median 18.5,
//     trained on its own shards in batches of 128 records (one shard:
//     21..33).
//   - Engine: 142..216, medians 176.5 and 176 in two batches, trained on
//     every run (before the inline owner sampled); 142..282, medians 170
//     and 193.5, on the sample.
func TestLAPSMigratesOnSampledFeedback(t *testing.T) {
	each(t, owners, func(t *testing.T, o owner) {
		l := migrationLAPS()
		r := o.start(t, migrationConfig(l, WorkSpin))
		feedMigrationStream(r.offer)
		res := r.stop()
		checkConservation(t, res)
		if res.Dropped != 0 || res.OutOfOrder != 0 {
			t.Fatalf("dropped %d, out of order %d", res.Dropped, res.OutOfOrder)
		}
		if st := l.Stats(); st.Migrations == 0 || res.Migrations == 0 {
			t.Fatalf("LAPS migrated %d flows and the lane carried out %d: the sample never reached a migration",
				st.Migrations, res.Migrations)
		}
		t.Logf("scheduler migrations %d, lane migrations %d, fenced %d, snapshots %d",
			l.Stats().Migrations, res.Migrations, res.Fenced, res.Snapshots)
	})
}

// migrationRingCap is the migration stream's ring capacity.
const migrationRingCap = 64

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
		feed(t, e.Ingest, e.Now, 40000, 2, 99)
		res := e.Stop()
		checkConservation(t, res)
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
	checkConservation(t, res)
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

// passHook is snapHash with a hook on the at-th Generation call once
// armed. A training pass asks for the generation after its health scan,
// so the hook lands an event inside a chosen pass, after the scan.
type passHook struct {
	snapHash
	armed atomic.Bool
	calls int // under Sharded.mu, like every scheduler call
	at    int
	fn    func()
}

func (h *passHook) Generation() uint64 {
	if h.armed.Load() {
		if h.calls++; h.calls == h.at {
			h.fn()
		}
	}
	return 0
}

// TestShardedReapsLateDeathAtStop: with the monitor off, a worker that
// dies once the last burst is dispatched is found by nothing but Stop —
// by a shard's last training pass, or by Stop itself after the shards
// exit. Worker 1 holds its first batch until the kill is due, so every
// lane's ring to it holds backlog, and the kill lands while the shards
// idle before Stop, between the two shards' last passes, or after both.
// Every time, Stop must quarantine it and drain every lane's ring into
// the survivors: nothing stranded, dropped, forced or reordered.
func TestShardedReapsLateDeathAtStop(t *testing.T) {
	const packets = 600
	for _, tc := range []struct {
		name string
		pass int // the pass after Stop's Close that the kill lands in; 0 = before Stop
	}{{"shards idle", 0}, {"between shard exits", 1}, {"after the shards exit", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			sched := &passHook{snapHash: snapHash{n: 3}, at: tc.pass}
			rec := obs.NewRecorder(1 << 12)
			e, err := NewSharded(Config{Workers: 3, Dispatchers: 2, RingCap: 256, Batch: 8,
				Sched: sched, Policy: BlockWhenFull, Recorder: rec,
				Faults: &FaultPlan{Faults: []Fault{{Worker: 1, After: 1, Kind: FaultKill}}},
				Handler: func(w int, _ *packet.Packet) {
					if w == 1 {
						<-gate
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			kill := func() {
				close(gate)
				for deadline := time.Now().Add(10 * time.Second); e.workers[1].state.Load() != wsDead; {
					if time.Now().After(deadline) {
						t.Error("worker 1 never died")
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			sched.fn = kill
			e.Start(context.Background())
			ps := make([]*packet.Packet, packets)
			for i := range ps {
				ps[i] = &packet.Packet{ID: uint64(i + 1), Flow: fkey(i % 60), FlowSeq: uint64(i / 60)}
			}
			e.IngestBurst(ps)
			// Idle: every packet sits in a worker's ring or has retired.
			for deadline := time.Now().Add(10 * time.Second); ; {
				var n uint64
				for _, w := range e.workers {
					n += w.processed.Load() + uint64(w.queueLen())
				}
				if n == packets {
					break
				}
				if time.Now().After(deadline) {
					close(gate)
					t.Fatalf("shards never went idle: %d of %d packets reached the workers", n, packets)
				}
				time.Sleep(100 * time.Microsecond)
			}
			if tc.pass == 0 {
				kill()
			} else {
				sched.armed.Store(true)
			}
			res := e.Stop()
			checkConservation(t, res)
			if !res.Workers[1].Dead || res.WorkerDeaths != 1 {
				t.Fatalf("worker 1 dead %v, %d deaths: the late kill was not quarantined", res.Workers[1].Dead, res.WorkerDeaths)
			}
			if res.Stranded != 0 || res.Dropped != 0 || res.Forced != 0 || res.OutOfOrder != 0 {
				t.Fatalf("stranded %d, dropped %d, forced %d, out of order %d",
					res.Stranded, res.Dropped, res.Forced, res.OutOfOrder)
			}
			if got := rec.Count(obs.EvRecovery); got != 2 || res.Reinjected == 0 {
				t.Fatalf("%d lane drains reinjected %d packets, want both lanes drained", got, res.Reinjected)
			}
		})
	}
}

// recSched records everything a lane owner shows a scheduler: the
// descriptor, the run's weight and the view's clock. Called from the
// owner's scheduling goroutine only (a shard holding Sharded's lock,
// Engine's dispatcher); read after Stop.
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

// TestShardedFeedbackRecord pins the shard → scheduler hand-off: a
// scheduler trained by a shard sees exactly the fields a sample record
// carries — flow, primed hash, service, size — with the sampler's
// weight, the weights it is shown add up to every dispatched packet to
// within the sampler's feedbackStride (so the pass before a shard exits
// trains what is left), and the view's clock is one reading per
// training pass.
func TestShardedFeedbackRecord(t *testing.T) {
	const (
		bursts   = 6
		perBurst = 16 // flows per burst, two packets each
	)
	sched := &recSched{t: t}
	e, err := NewSharded(Config{Workers: 2, Dispatchers: 1, RingCap: 256, Batch: 32,
		Sched: sched, Policy: BlockWhenFull})
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
		time.Sleep(2 * time.Millisecond)
	}
	res := e.Stop()
	checkConservation(t, res)
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
			t.Fatalf("record %d carries per-packet fields (id %d seq %d): a sample record has none", k, p.ID, p.FlowSeq)
		}
		if sched.ns[k] <= 0 {
			t.Fatalf("record %d stands for %d packets", k, sched.ns[k])
		}
		observed += uint64(sched.ns[k])
	}
	// One shard, so one sampler: the weights it handed out are within
	// feedbackStride of the packets it saw.
	if d := int64(observed) - int64(res.Dispatched); d <= -feedbackStride || d >= feedbackStride {
		t.Fatalf("scheduler observed %d packets, want within %d of dispatched %d",
			observed, feedbackStride, res.Dispatched)
	}

	// Every burst is one ingress batch (Batch = 2*perBurst) that runs the
	// ring dry, so its records are trained in one pass and share one
	// clock reading. A burst is four strata of the sampler, so it always
	// yields records.
	if len(sched.pkts) == 0 {
		t.Fatal("no records reached the scheduler")
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
		t.Fatalf("%d bursts trained under %d clock readings: the clock is not advancing between passes", bursts, readings)
	}
}

// TestObsRecSize keeps the sample record from quietly growing back into
// a descriptor copy: it is written and read once per sampled run.
func TestObsRecSize(t *testing.T) {
	if sz := unsafe.Sizeof(obsRec{}); sz > 32 {
		t.Fatalf("obsRec is %d bytes, want <= 32", sz)
	}
}
