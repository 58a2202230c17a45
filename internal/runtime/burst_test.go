package runtime

import (
	"context"
	"maps"
	"math/rand"
	"testing"
	"time"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/sim"
)

// burstFlows builds b bursts of the given distinct flows, each flow
// appearing exactly once per burst in a fixed order, with correct
// per-flow sequence numbers and primed hashes. The "stride" shape: a
// flow never repeats within a burst, so burst grouping degenerates to
// singleton groups and the burst path's decision sequence is
// call-for-call identical to per-packet dispatch.
func burstFlows(flows, bursts int) [][]*packet.Packet {
	keys := make([]packet.FlowKey, flows)
	for i := range keys {
		keys[i] = packet.FlowKey{SrcIP: uint32(i), DstIP: 0xfeed, SrcPort: 443, DstPort: uint16(i), Proto: packet.ProtoUDP}
	}
	out := make([][]*packet.Packet, bursts)
	var id uint64
	for b := range out {
		ps := make([]*packet.Packet, flows)
		for i := range ps {
			id++
			ps[i] = &packet.Packet{
				ID: id, Flow: keys[i], Service: packet.ServiceID(i % 2), Size: 128,
				FlowSeq: uint64(b),
			}
			crc.Prime(ps[i])
		}
		out[b] = ps
	}
	return out
}

// quiesce waits until the engine's workers have retired want packets.
func quiesce(tb testing.TB, e *Engine, want uint64) {
	tb.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		var got uint64
		for _, w := range e.workers {
			got += w.processed.Load()
		}
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("quiesce timed out at %d of %d retired", got, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestBurstMatchesPerPacketExact is the strictest conformance gate:
// with stride-shaped bursts (every flow at most once per burst) and a
// quiesce between bursts, the burst path's counters must equal the
// per-packet path's exactly — same dispatched, processed, migrations,
// forced count, zero drops, zero reordering — under a deterministic
// migration-storm scheduler. Singleton groups call the scheduler once
// per packet in packet order, and quiescing pins every fence's
// resolution point, so any counter drift is a burst-path bug, not
// timing.
func TestBurstMatchesPerPacketExact(t *testing.T) {
	const flows, bursts = 64, 200
	run := func(burst bool) (*Result, *flowLog) {
		fl := newFlowLog()
		e, err := New(Config{
			Workers: 4,
			RingCap: 1024,
			Batch:   16,
			Sched:   &flapSched{n: 4, period: 50},
			Policy:  BlockWhenFull,
			Handler: fl.handler,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start(context.Background())
		var fed uint64
		for _, ps := range burstFlows(flows, bursts) {
			if burst {
				e.DispatchBurst(ps)
			} else {
				for _, p := range ps {
					e.Dispatch(p)
				}
				e.Flush()
			}
			fed += uint64(len(ps))
			quiesce(t, e, fed)
		}
		res := e.Stop()
		checkConservation(t, res)
		return res, fl
	}
	pp, ppLog := run(false)
	bb, bbLog := run(true)

	if pp.Dispatched != bb.Dispatched || pp.Processed != bb.Processed {
		t.Fatalf("throughput counters differ: per-packet %d/%d vs burst %d/%d (dispatched/processed)",
			pp.Dispatched, pp.Processed, bb.Dispatched, bb.Processed)
	}
	if pp.Dropped != 0 || bb.Dropped != 0 {
		t.Fatalf("block-mode runs dropped packets: per-packet %d, burst %d", pp.Dropped, bb.Dropped)
	}
	if pp.OutOfOrder != 0 || bb.OutOfOrder != 0 {
		t.Fatalf("reordering despite fencing: per-packet %d, burst %d", pp.OutOfOrder, bb.OutOfOrder)
	}
	if pp.Migrations != bb.Migrations {
		t.Fatalf("migration counts differ: per-packet %d vs burst %d", pp.Migrations, bb.Migrations)
	}
	if pp.Fenced != bb.Fenced {
		t.Fatalf("fenced counts differ: per-packet %d vs burst %d", pp.Fenced, bb.Fenced)
	}
	if pp.Migrations == 0 {
		t.Fatal("migration storm produced no migrations")
	}
	if len(ppLog.seqs) != len(bbLog.seqs) {
		t.Fatalf("flow sets differ: %d vs %d", len(ppLog.seqs), len(bbLog.seqs))
	}
	for f, s1 := range ppLog.seqs {
		s2 := bbLog.seqs[f]
		if len(s1) != len(s2) {
			t.Fatalf("flow %v: %d packets per-packet vs %d burst", f, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("flow %v delivery diverges at %d: %d vs %d", f, i, s1[i], s2[i])
			}
		}
	}
}

// TestBurstInvariantsRepeatedFlows feeds Zipf-shaped bursts — flows
// repeat within a burst, so real flow groups form — through the burst
// path at full speed and pins the ordering invariants against a
// per-packet reference run: zero reordering, zero drops, identical
// per-flow delivery (every flow complete and in strict FlowSeq order).
// Counter equality is not asserted here: fence resolution depends on
// worker timing once the feed stops quiescing.
func TestBurstInvariantsRepeatedFlows(t *testing.T) {
	const n = 120000
	schedulers := map[string]func() Config{
		"flap": func() Config {
			return Config{Workers: 4, RingCap: 64, Batch: 16,
				Sched: &flapSched{n: 4, period: 700}, Policy: BlockWhenFull}
		},
		"laps": func() Config {
			l := core.New(core.Config{TotalCores: 4, Services: 2, AFD: afd.Config{Seed: 7}})
			return Config{Workers: 4, RingCap: 64, Batch: 16, Sched: l, Policy: BlockWhenFull}
		},
	}
	for name, mkCfg := range schedulers {
		t.Run(name, func(t *testing.T) {
			run := func(burst bool) (*Result, *flowLog) {
				fl := newFlowLog()
				cfg := mkCfg()
				cfg.Handler = fl.handler
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.Start(context.Background())
				pkts := benchPackets(n, 2, 42)
				if burst {
					for i := 0; i < len(pkts); i += 64 {
						end := i + 64
						if end > len(pkts) {
							end = len(pkts)
						}
						e.DispatchBurst(pkts[i:end])
					}
				} else {
					for _, p := range pkts {
						e.Dispatch(p)
					}
				}
				res := e.Stop()
				checkConservation(t, res)
				if res.Dropped != 0 {
					t.Fatalf("block-mode run dropped %d packets", res.Dropped)
				}
				if res.OutOfOrder != 0 {
					t.Fatalf("fencing failed: %d out-of-order departures", res.OutOfOrder)
				}
				return res, fl
			}
			pp, ppLog := run(false)
			bb, bbLog := run(true)
			if pp.Processed != bb.Processed {
				t.Fatalf("processed differ: per-packet %d vs burst %d", pp.Processed, bb.Processed)
			}
			if name == "flap" && (pp.Migrations == 0 || bb.Migrations == 0) {
				t.Fatalf("storm produced no migrations: per-packet %d, burst %d", pp.Migrations, bb.Migrations)
			}
			if len(ppLog.seqs) != len(bbLog.seqs) {
				t.Fatalf("flow sets differ: %d vs %d", len(ppLog.seqs), len(bbLog.seqs))
			}
			for f, s1 := range ppLog.seqs {
				s2 := bbLog.seqs[f]
				if len(s1) != len(s2) {
					t.Fatalf("flow %v: %d packets per-packet vs %d burst", f, len(s1), len(s2))
				}
				for i := range s1 {
					// Fencing makes each run's per-flow retirement strictly
					// FlowSeq-ordered, so both must be the identity sequence.
					if s1[i] != uint64(i) || s2[i] != uint64(i) {
						t.Fatalf("flow %v out of sequence at %d: %d (per-packet) / %d (burst)",
							f, i, s1[i], s2[i])
					}
				}
			}
		})
	}
}

// TestShardedBurstConformance mirrors the invariant gate on the
// sharded data plane: IngestBurst under a snapshot-driven migration
// storm must match plain Ingest on delivery — zero drops, zero
// reordering, identical per-flow sequences — across shard counts,
// including the multi-shard partition path.
func TestShardedBurstConformance(t *testing.T) {
	const n = 60000
	for _, disp := range []int{1, 4} {
		run := func(burst bool) (*Result, *flowLog) {
			fl := newFlowLog()
			e, err := NewSharded(Config{
				Workers:     4,
				Dispatchers: disp,
				RingCap:     64,
				Batch:       16,
				Sched:       &snapFlap{n: 4, period: 400},
				Policy:      BlockWhenFull,
				Handler:     fl.handler,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Start(context.Background())
			pkts := benchPackets(n, 2, 99)
			if burst {
				for i := 0; i < len(pkts); i += 64 {
					end := i + 64
					if end > len(pkts) {
						end = len(pkts)
					}
					e.IngestBurst(pkts[i:end])
				}
			} else {
				for _, p := range pkts {
					e.Ingest(p)
				}
			}
			res := e.Stop()
			checkConservation(t, res)
			if res.Dropped != 0 {
				t.Fatalf("Dispatchers=%d block-mode run dropped %d packets", disp, res.Dropped)
			}
			if res.OutOfOrder != 0 {
				t.Fatalf("Dispatchers=%d reordered %d packets", disp, res.OutOfOrder)
			}
			return res, fl
		}
		pp, ppLog := run(false)
		bb, bbLog := run(true)
		if pp.Processed != bb.Processed {
			t.Fatalf("Dispatchers=%d processed differ: ingest %d vs burst %d", disp, pp.Processed, bb.Processed)
		}
		if bb.Migrations == 0 {
			t.Fatalf("Dispatchers=%d burst storm produced no migrations", disp)
		}
		if len(ppLog.seqs) != len(bbLog.seqs) {
			t.Fatalf("Dispatchers=%d flow sets differ: %d vs %d", disp, len(ppLog.seqs), len(bbLog.seqs))
		}
		for f, s1 := range ppLog.seqs {
			s2 := bbLog.seqs[f]
			if len(s1) != len(s2) {
				t.Fatalf("Dispatchers=%d flow %v: %d packets ingest vs %d burst", disp, f, len(s1), len(s2))
			}
			for i := range s1 {
				if s1[i] != uint64(i) || s2[i] != uint64(i) {
					t.Fatalf("Dispatchers=%d flow %v out of sequence at %d: %d / %d",
						disp, f, i, s1[i], s2[i])
				}
			}
		}
	}
}

// TestBurstScratchGroups pins the flow-grouping primitive itself: every
// group's packets share one flow, groups come out in first-occurrence
// order, the intra-group chain preserves packet order, and every packet
// lands in exactly one group.
func TestBurstScratchGroups(t *testing.T) {
	const flows, n = 17, 200
	ps := make([]*packet.Packet, n)
	for i := range ps {
		f := (i * 7) % flows
		ps[i] = &packet.Packet{
			ID:   uint64(i + 1),
			Flow: packet.FlowKey{SrcIP: uint32(f), DstIP: 0xabcd, Proto: packet.ProtoUDP},
		}
		crc.Prime(ps[i])
	}
	bs := newBurstScratch()
	groups := bs.group(ps)

	seen := make(map[int]bool, n)
	firstSeen := make(map[packet.FlowKey]int)
	for i, p := range ps {
		if _, ok := firstSeen[p.Flow]; !ok {
			firstSeen[p.Flow] = i
		}
	}
	lastFirst := -1
	for _, g := range groups {
		flow := ps[g.head].Flow
		if ff := firstSeen[flow]; ff <= lastFirst {
			t.Fatalf("groups not in first-occurrence order: flow %v (first at %d) after %d", flow, ff, lastFirst)
		} else {
			lastFirst = ff
		}
		count := int32(0)
		prev := int32(-1)
		for i := g.head; ; i = bs.next[i] {
			if seen[int(i)] {
				t.Fatalf("packet %d appears in two groups", i)
			}
			seen[int(i)] = true
			if ps[i].Flow != flow {
				t.Fatalf("group for %v contains packet of flow %v", flow, ps[i].Flow)
			}
			if i <= prev {
				t.Fatalf("intra-group chain broke packet order: %d after %d", i, prev)
			}
			prev = i
			count++
			if i == g.tail {
				break
			}
		}
		if count != g.n {
			t.Fatalf("group for %v chains %d packets, header says %d", flow, count, g.n)
		}
	}
	if len(seen) != n {
		t.Fatalf("groups cover %d of %d packets", len(seen), n)
	}
	bs.reset()
}

// clockSched records the View clock it is shown on every decision and
// checks the rest of the View stays the engine's live state.
type clockSched struct {
	t    *testing.T
	seen []sim.Time
}

func (c *clockSched) Name() string { return "clock" }
func (c *clockSched) Target(p *packet.Packet, v npsim.View) int {
	c.seen = append(c.seen, v.Now())
	if v.NumCores() != 2 || v.QueueCap() != 256 || v.QueueLen(0) < 0 || v.IdleFor(1) < 0 {
		c.t.Errorf("chunk view lost the engine's queue state: cores %d cap %d", v.NumCores(), v.QueueCap())
	}
	return int(p.Flow.SrcIP) % 2
}

// TestDispatchBurstOneClockReadPerChunk: every scheduler decision of a
// chunk sees the chunk's single clock reading; the next chunk sees a
// later one; the per-packet path still reads the live clock.
func TestDispatchBurstOneClockReadPerChunk(t *testing.T) {
	sched := &clockSched{t: t}
	e, err := New(Config{Workers: 2, RingCap: 256, Sched: sched, Policy: BlockWhenFull})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	const flows = 48
	bursts := burstFlows(flows, 3)
	e.DispatchBurst(bursts[0])
	time.Sleep(time.Millisecond)
	e.DispatchBurst(bursts[1])
	for _, p := range bursts[2] {
		e.Dispatch(p)
	}
	if res := e.Stop(); res.Processed != 3*flows || res.OutOfOrder != 0 {
		t.Fatalf("processed %d (want %d), out of order %d", res.Processed, 3*flows, res.OutOfOrder)
	}
	if len(sched.seen) != 3*flows {
		t.Fatalf("scheduler consulted %d times, want %d", len(sched.seen), 3*flows)
	}
	first, second, live := sched.seen[:flows], sched.seen[flows:2*flows], sched.seen[2*flows:]
	for i := range first {
		if first[i] != first[0] || second[i] != second[0] {
			t.Fatalf("decision %d saw clock %d / %d, want the chunk's one reading %d / %d", i, first[i], second[i], first[0], second[0])
		}
	}
	if second[0] < first[0]+sim.Time(time.Millisecond) {
		t.Fatalf("second chunk's clock %d is not a fresh reading after %d", second[0], first[0])
	}
	if live[flows-1] <= live[0] || live[0] < second[0] {
		t.Fatalf("per-packet path clock did not advance: %d .. %d after %d", live[0], live[flows-1], second[0])
	}
}

// plainRec is a plain Scheduler (no TargetN) that records which packet
// it was asked about.
type plainRec struct{ ids []uint64 }

func (r *plainRec) Name() string { return "plainrec" }
func (r *plainRec) Target(p *packet.Packet, _ npsim.View) int {
	r.ids = append(r.ids, p.ID)
	return 0
}

// engineRun is one flow run as Engine's lane sees it: a Dispatch call is
// a run of 1, a DispatchBurst chunk one run per flow.
type engineRun struct {
	first uint64 // ID of the run's first packet
	n     int
}

// samplerStream is a seeded mix of the two entry points: a step of one
// packet goes through Dispatch, a longer one through DispatchBurst.
// Flows come in runs of 1..64 packets either way — one Dispatch call per
// packet, or one run per distinct flow of a burst that fits one chunk.
func samplerStream() (steps [][]*packet.Packet, runs []engineRun) {
	rng := rand.New(rand.NewSource(31))
	seqs := make(map[packet.FlowKey]uint64)
	var id uint64
	mk := func(f packet.FlowKey) *packet.Packet {
		id++
		p := &packet.Packet{ID: id, Flow: f, Size: 64, FlowSeq: seqs[f]}
		seqs[f]++
		return p
	}
	for len(runs) < 4000 {
		if rng.Intn(2) == 0 {
			f := fkey(rng.Intn(100))
			for k := 1 + rng.Intn(64); k > 0; k-- {
				p := mk(f)
				steps = append(steps, []*packet.Packet{p})
				runs = append(runs, engineRun{first: p.ID, n: 1})
			}
			continue
		}
		var burst []*packet.Packet
		for _, f := range rng.Perm(100)[:2+rng.Intn(7)] {
			n := 1 + rng.Intn(64)
			if len(burst)+n > burstChunk {
				break
			}
			runs = append(runs, engineRun{first: id + 1, n: n})
			for k := 0; k < n; k++ {
				burst = append(burst, mk(fkey(100+f)))
			}
		}
		steps = append(steps, burst)
	}
	return steps, runs
}

// packetsByID indexes a stream's packets by ID, so a run's head can be
// found from engineRun.first.
func packetsByID(steps [][]*packet.Packet) map[uint64]*packet.Packet {
	m := make(map[uint64]*packet.Packet)
	for _, ps := range steps {
		for _, p := range ps {
			m[p.ID] = p
		}
	}
	return m
}

// feedSteps starts an engine on sched, feeds it the stream and stops it,
// checking that every packet was routed, in order, and nothing lost.
func feedSteps(t *testing.T, sched npsim.Scheduler, steps [][]*packet.Packet) *Result {
	t.Helper()
	e, err := New(Config{Workers: 2, RingCap: 256, Batch: 32, Sched: sched, Policy: BlockWhenFull})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	var total uint64
	for _, ps := range steps {
		if len(ps) == 1 {
			e.Dispatch(ps[0])
		} else {
			e.DispatchBurst(ps)
		}
		total += uint64(len(ps))
	}
	res := e.Stop()
	checkConservation(t, res)
	if res.Dispatched != total || res.Processed != total || res.OutOfOrder != 0 {
		t.Fatalf("dispatched %d, processed %d, out of order %d: want %d, %d, 0",
			res.Dispatched, res.Processed, res.OutOfOrder, total, total)
	}
	return res
}

// viewRec is recSched whose views answer 1 where it answers 0, and
// record the head of every run they resolve — so a decision shows which
// path made it. Engine calls views on its dispatcher goroutine only.
type viewRec struct {
	recSched
	fwd []uint64
}

func (r *viewRec) Snapshot(sim.Time) npsim.Forwarder { return (*viewRecFwd)(r) }

type viewRecFwd viewRec

func (f *viewRecFwd) Forward(p *packet.Packet) int {
	f.fwd = append(f.fwd, p.ID)
	return 1
}

// TestEngineTrainsOnSample: Engine shows a scheduler that publishes
// views only the lane's sample, as a shard's training pass shows it,
// and resolves every other run against its view. Through either entry
// point, exactly the runs a fresh lane-0 sampler weighs above zero reach
// TargetN — once each, in order, about the run's first packet, at that
// weight; Σn stays within feedbackStride of the packets dispatched after
// every run; a run of 2·feedbackStride−1 or more is shown at its exact
// length. Every other run is resolved by the view's Forward about its
// first packet. Driving decide by hand over the same runs shows that
// each run follows the answer of the path that resolved it.
func TestEngineTrainsOnSample(t *testing.T) {
	steps, runs := samplerStream()
	sched := &viewRec{recSched: recSched{t: t}}
	res := feedSteps(t, sched, steps)
	ref := newFeedSampler(0) // Engine's lane is lane 0
	var weight, packets uint64
	long, sampled, viewed := 0, 0, 0
	for k, r := range runs {
		w := int(ref.weigh(uint32(r.n)))
		if w == 0 {
			if viewed >= len(sched.fwd) || sched.fwd[viewed] != r.first {
				t.Fatalf("run %d (head %d) has sample weight 0 but was not the view's next resolve", k, r.first)
			}
			viewed++
		} else {
			if sampled >= len(sched.ns) {
				t.Fatalf("run %d (head %d) sampled at weight %d never reached TargetN", k, r.first, w)
			}
			if id, got := sched.pkts[sampled].ID, sched.ns[sampled]; id != r.first || got != w {
				t.Fatalf("TargetN call %d was about packet %d at weight %d; want run %d's head %d at the lane sampler's %d",
					sampled, id, got, k, r.first, w)
			}
			sampled++
		}
		if r.n >= 2*feedbackStride-1 {
			long++
			if w != r.n {
				t.Fatalf("run %d: a run of %d sampled at weight %d, want its exact length", k, r.n, w)
			}
		}
		weight += uint64(w)
		packets += uint64(r.n)
		checkConserved(t, k, weight, packets)
	}
	if sampled != len(sched.ns) || viewed != len(sched.fwd) {
		t.Fatalf("%d TargetN calls and %d view resolves for %d sampled and %d unsampled runs",
			len(sched.ns), len(sched.fwd), sampled, viewed)
	}
	if packets != res.Dispatched {
		t.Fatalf("runs cover %d packets, the engine dispatched %d", packets, res.Dispatched)
	}
	if long == 0 || viewed == 0 {
		t.Fatalf("stream exercised %d long runs and %d unsampled ones; want both", long, viewed)
	}
	if res.Snapshots != 1 {
		t.Fatalf("%d views taken under a scheduler whose generation never moves, want the one Start takes", res.Snapshots)
	}

	// The same runs through decide alone: a sampled run goes where
	// TargetN says (0), any other where the view says (1).
	sched = &viewRec{recSched: recSched{t: t}}
	e, err := New(Config{Workers: 2, RingCap: 256, Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	heads := packetsByID(steps)
	ref = newFeedSampler(0)
	for k, r := range runs {
		want := 1
		if ref.weigh(uint32(r.n)) > 0 {
			want = 0
		}
		if got := e.decide(heads[r.first], r.n, e); got != want {
			t.Fatalf("run %d decided worker %d, want %d", k, got, want)
		}
	}
	e.Stop()
}

// flipSched is a SnapshotProvider whose every TargetN call moves the
// run's flow to the other of two workers and bumps the generation; its
// views are frozen copies of the homes. Target (never called by Engine)
// is counted.
type flipSched struct {
	home    map[packet.FlowKey]int
	gen     uint64
	targets int
}

func (s *flipSched) Name() string { return "flip" }
func (s *flipSched) Target(p *packet.Packet, _ npsim.View) int {
	s.targets++
	return s.home[p.Flow]
}
func (s *flipSched) TargetN(p *packet.Packet, _ int, _ npsim.View) int {
	s.home[p.Flow] ^= 1
	s.gen++
	return s.home[p.Flow]
}
func (s *flipSched) Generation() uint64 { return s.gen }
func (s *flipSched) Snapshot(sim.Time) npsim.Forwarder {
	return homeFwd(maps.Clone(s.home))
}

type homeFwd map[packet.FlowKey]int

func (h homeFwd) Forward(p *packet.Packet) int { return h[p.Flow] }

// TestEngineViewFollowsSampledMigration: a migration the scheduler
// decides on a sampled run reaches that flow's very next unsampled run —
// Engine retakes its view as soon as the generation moves — while a
// plain Scheduler is still asked about every run. Every sampled run of
// flipSched re-homes its flow, so each run must follow the latest flip
// of its flow, the engine takes one view at Start plus one per flip, and
// the same stream dispatched for real keeps every flow in order through
// the flips.
func TestEngineViewFollowsSampledMigration(t *testing.T) {
	steps, runs := samplerStream()
	heads := packetsByID(steps)
	sched := &flipSched{home: make(map[packet.FlowKey]int)}
	e, err := New(Config{Workers: 2, RingCap: 256, Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	home := make(map[packet.FlowKey]int)
	ref := newFeedSampler(0)
	flips, followed := 0, 0
	for k, r := range runs {
		p := heads[r.first]
		if ref.weigh(uint32(r.n)) > 0 {
			home[p.Flow] ^= 1
			flips++
		} else if home[p.Flow] != 0 {
			followed++ // an unsampled run of a flow a sampled run moved
		}
		if got := e.decide(p, r.n, e); got != home[p.Flow] {
			t.Fatalf("run %d (flow %v, %d flips so far) decided worker %d, want its latest home %d",
				k, p.Flow, flips, got, home[p.Flow])
		}
	}
	res := e.Stop()
	if want := uint64(1 + flips); res.Snapshots != want {
		t.Fatalf("%d views taken, want %d: one at Start and one per generation move", res.Snapshots, want)
	}
	if followed == 0 || sched.targets != 0 {
		t.Fatalf("%d unsampled runs followed a migration, %d Target calls: want some, and none", followed, sched.targets)
	}

	// decide alone retires nothing, so the same packets can now be
	// dispatched for real.
	sched = &flipSched{home: make(map[packet.FlowKey]int)}
	res = feedSteps(t, sched, steps)
	if res.Snapshots != uint64(1+flips) || res.Migrations == 0 {
		t.Fatalf("dispatched for real: %d views, %d lane migrations; want %d and some", res.Snapshots, res.Migrations, 1+flips)
	}

	steps, runs = samplerStream()
	plain := &plainRec{}
	res = feedSteps(t, plain, steps)
	if len(plain.ids) != len(runs) || res.Snapshots != 0 {
		t.Fatalf("plain scheduler asked %d times for %d flow runs, %d views taken", len(plain.ids), len(runs), res.Snapshots)
	}
	for k, r := range runs {
		if plain.ids[k] != r.first {
			t.Fatalf("plain call %d was about packet %d, want run head %d", k, plain.ids[k], r.first)
		}
	}
}
