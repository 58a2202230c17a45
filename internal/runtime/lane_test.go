package runtime

import (
	"context"
	stdrt "runtime"
	"sync/atomic"
	"testing"
	"time"

	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
)

// The lane alone, no goroutines: an Engine that is never started is a
// lane over workers that never run, so the test plays the workers by
// hand — pop a batch off a ring, then tick the retired count — and
// checks every route kind at the exact step it must happen.

type delivery struct {
	worker int
	flow   packet.FlowKey
	seq    uint64
}

// laneRig drives one un-started engine's lane step by step.
type laneRig struct {
	t     *testing.T
	e     *Engine
	burst bool // enter through dispatchGroup (flow runs) instead of dispatchResolved

	seq               map[packet.FlowKey]uint64
	offered, accepted int
	held              [][]*packet.Packet // per worker: popped, not yet retired
	log               []delivery         // retirements, in the order they happened
}

func newLaneRig(t *testing.T, burst bool) *laneRig {
	e, err := New(Config{Workers: 3, RingCap: 16, Batch: 4, Sched: hashSched{n: 3}})
	if err != nil {
		t.Fatal(err)
	}
	e.ctx = context.Background()
	return &laneRig{t: t, e: e, burst: burst,
		seq: make(map[packet.FlowKey]uint64), held: make([][]*packet.Packet, 3)}
}

// send offers n packets of one flow with the owner's target already
// resolved, through the entry point under test.
func (r *laneRig) send(flow, n, target int) {
	ps := make([]*packet.Packet, n)
	for i := range ps {
		f := fkey(flow)
		ps[i] = &packet.Packet{ID: uint64(r.offered + i + 1), Flow: f, FlowSeq: r.seq[f]}
		r.seq[f]++
	}
	r.offered += n
	if !r.burst {
		for _, p := range ps {
			if r.e.dispatchResolved(p, target) {
				r.accepted++
			}
		}
		return
	}
	r.e.resetOcc()
	groups := r.e.burst.group(ps)
	for gi := range groups {
		r.accepted += r.e.dispatchGroup(ps, &groups[gi], target)
	}
	r.e.burst.reset()
}

// pop takes everything queued for worker w into its in-service slot:
// off the ring, not yet retired.
func (r *laneRig) pop(w int) {
	r.e.Flush()
	buf := make([]*packet.Packet, 16)
	n := r.e.workers[w].rings[0].PopBatch(buf)
	r.held[w] = append(r.held[w], buf[:n]...)
}

// retire ends worker w's in-service batch; the counters tick once, at
// the end, as worker.consume does.
func (r *laneRig) retire(w int) {
	for _, p := range r.held[w] {
		r.log = append(r.log, delivery{w, p.Flow, p.FlowSeq})
	}
	n := uint64(len(r.held[w]))
	r.held[w] = nil
	r.e.workers[w].retired[0].Add(n)
	r.e.workers[w].processed.Add(n)
}

// retireAll runs every live worker to empty.
func (r *laneRig) retireAll() {
	for w := range r.e.workers {
		if r.e.health[w] == whAlive {
			r.pop(w)
			r.retire(w)
		}
	}
}

// wedge leaves worker w stuck mid-batch, so it cannot be seized.
func (r *laneRig) wedge(w int) { r.e.workers[w].state.Store(wsActive) }

func (r *laneRig) count(c int) uint64 { return r.e.n[c].Load() }

// deliveredBy lists the workers that retired packets of flow, and
// fails on any per-flow sequence regression in the retirement log.
func (r *laneRig) deliveredBy(flow int) map[int]int {
	r.t.Helper()
	by := make(map[int]int)
	next := uint64(0)
	for _, d := range r.log {
		if d.flow != fkey(flow) {
			continue
		}
		if d.seq != next {
			r.t.Fatalf("flow %d retired seq %d, want %d: order broken (log %v)", flow, d.seq, next, r.log)
		}
		next++
		by[d.worker]++
	}
	return by
}

// finish collects the Result and checks conservation against what the
// rig offered.
func (r *laneRig) finish() *Result {
	r.t.Helper()
	res := r.e.finish()
	if got := res.Processed + res.Dropped; got != uint64(r.offered) {
		r.t.Fatalf("conservation: processed %d + dropped %d != offered %d", res.Processed, res.Dropped, r.offered)
	}
	if res.Dropped != uint64(r.offered-r.accepted)+res.Stranded {
		r.t.Fatalf("dropped %d != refused %d + stranded %d", res.Dropped, r.offered-r.accepted, res.Stranded)
	}
	return res
}

func TestLaneRoutes(t *testing.T) {
	const A, B = 11, 12
	cases := []struct {
		name string
		run  func(t *testing.T, r *laneRig)
	}{
		{"plain", func(t *testing.T, r *laneRig) {
			r.send(A, 3, 0)
			r.retireAll()
			if by := r.deliveredBy(A); by[0] != 3 {
				t.Fatalf("delivered by %v, want 3 on worker 0", by)
			}
			if res := r.finish(); res.Migrations+res.Fenced+res.Forced+res.Dropped != 0 {
				t.Fatalf("plain route counted something: %+v", res)
			}
		}},
		{"migrated after drain", func(t *testing.T, r *laneRig) {
			r.send(A, 2, 0)
			r.retireAll()
			r.send(A, 2, 1)
			r.retireAll()
			if by := r.deliveredBy(A); by[0] != 2 || by[1] != 2 {
				t.Fatalf("delivered by %v, want 2 on worker 0 then 2 on worker 1", by)
			}
			if res := r.finish(); res.Migrations != 1 || res.Fenced != 0 {
				t.Fatalf("migrations %d fenced %d, want 1 and 0", res.Migrations, res.Fenced)
			}
		}},
		{"fenced before drain", func(t *testing.T, r *laneRig) {
			r.send(A, 2, 0)
			r.send(A, 2, 1) // worker 0 has retired nothing: stays put
			r.retireAll()
			if by := r.deliveredBy(A); by[0] != 4 {
				t.Fatalf("delivered by %v, want all 4 held on worker 0", by)
			}
			if res := r.finish(); res.Migrations != 0 || res.Fenced != 2 {
				t.Fatalf("migrations %d fenced %d, want 0 and 2", res.Migrations, res.Fenced)
			}
		}},
		{"released a batch late, never early", func(t *testing.T, r *laneRig) {
			r.send(A, 2, 0)
			r.pop(0) // both packets off the ring, mid-batch: not retired
			r.send(A, 1, 1)
			if got := r.count(cFenced); got != 1 {
				t.Fatalf("fenced %d with the flow's packets still in service, want 1", got)
			}
			r.pop(0)
			r.retire(0) // the batch ends: retired ticks past the fence
			r.send(A, 1, 1)
			r.retireAll()
			if by := r.deliveredBy(A); by[0] != 3 || by[1] != 1 {
				t.Fatalf("delivered by %v, want 3 on worker 0 then 1 on worker 1", by)
			}
			if res := r.finish(); res.Migrations != 1 || res.Fenced != 1 {
				t.Fatalf("migrations %d fenced %d, want 1 and 1", res.Migrations, res.Fenced)
			}
		}},
		{"target quarantined: hash reroute", func(t *testing.T, r *laneRig) {
			r.e.quarantine(1) // idle and empty: seized, nothing to drain
			r.send(A, 3, 1)
			r.retireAll()
			by := r.deliveredBy(A)
			if len(by) != 1 || by[1] != 0 || by[0]+by[2] != 3 {
				t.Fatalf("delivered by %v, want all 3 on one live worker", by)
			}
			if res := r.finish(); res.Forced+res.Dropped != 0 || res.WorkerDeaths != 1 {
				t.Fatalf("forced %d dropped %d deaths %d, want 0, 0, 1", res.Forced, res.Dropped, res.WorkerDeaths)
			}
		}},
		{"old worker seized: drain re-injects in order", func(t *testing.T, r *laneRig) {
			r.send(A, 3, 1)
			r.send(B, 2, 1) // five packets: four in the ring, one staged
			r.e.quarantine(1)
			if got, flows := r.count(cReinjected), r.count(cRecovered); got != 5 || flows != 2 {
				t.Fatalf("reinjected %d packets of %d flows, want 5 of 2", got, flows)
			}
			// The fence was re-pointed at the new home: asking for any other
			// worker before that home retires must hold the flow there.
			fa := fkey(A)
			st, ok := r.e.flows.Get(fa, crc.FlowHash(fa))
			if !ok || st.core == 1 || st.seq != 3 {
				t.Fatalf("flow record %+v (found %v), want re-pointed at a live worker, seq 3", st, ok)
			}
			r.send(A, 1, 3-1-int(st.core)) // the third worker: neither dead nor home
			if got := r.count(cFenced); got != 1 {
				t.Fatalf("fenced %d after recovery, want 1: fence not re-pointed", got)
			}
			r.retireAll()
			if by := r.deliveredBy(A); by[int(st.core)] != 4 {
				t.Fatalf("flow A delivered by %v, want all 4 on worker %d", by, st.core)
			}
			r.deliveredBy(B)
			if res := r.finish(); res.Forced+res.Dropped != 0 {
				t.Fatalf("forced %d dropped %d, want 0 and 0", res.Forced, res.Dropped)
			}
		}},
		{"old worker wedged: forced release, backlog stranded", func(t *testing.T, r *laneRig) {
			r.send(A, 3, 1)
			r.wedge(1)
			r.e.quarantine(1)
			if r.e.health[1] != whWedged || r.count(cReinjected) != 0 {
				t.Fatalf("health %d reinjected %d, want wedged and nothing drained", r.e.health[1], r.count(cReinjected))
			}
			r.send(A, 2, 1)
			r.retireAll()
			var late int // A's first three never retire; the two sent after must
			for _, d := range r.log {
				if d.flow == fkey(A) && d.worker != 1 && d.seq >= 3 {
					late++
				}
			}
			if late != 2 {
				t.Fatalf("%d of flow A's post-wedge packets retired on live workers, want 2 (log %v)", late, r.log)
			}
			res := r.finish()
			if res.Forced != 1 || res.Migrations != 1 {
				t.Fatalf("forced %d migrations %d, want 1 and 1", res.Forced, res.Migrations)
			}
			if res.Stranded != 3 || res.Dropped != 3 || res.Processed != 2 {
				t.Fatalf("stranded %d dropped %d processed %d, want 3, 3, 2", res.Stranded, res.Dropped, res.Processed)
			}
			if !res.Workers[1].Dead || res.Workers[1].Dropped != 3 {
				t.Fatalf("worker 1 report %+v, want dead with 3 dropped", res.Workers[1])
			}
		}},
	}
	for _, tc := range cases {
		for _, entry := range []struct {
			name  string
			burst bool
		}{{"per-packet", false}, {"flow-run", true}} {
			t.Run(tc.name+"/"+entry.name, func(t *testing.T) {
				tc.run(t, newLaneRig(t, entry.burst))
			})
		}
	}
}

// TestDrainFollowsFirstReinjected: within one drain, a flow's stranded
// packets follow its first re-injected one, even when that survivor dies
// before anyone quarantines it. Worker 0 holds four packets of flow F;
// the drain re-injects the first onto survivor a, whose ring that fills,
// and a dies while the drain waits on it. The rest of F must not go to
// survivor b ahead of the first: the drain recovers a first, which moves
// F's first packet to b, and the rest follow it there.
func TestDrainFollowsFirstReinjected(t *testing.T) {
	const F, G = 11, 12
	r := newLaneRig(t, false)
	r.e.cfg.Policy = BlockWhenFull
	a := 1 + int(crc.FlowHash(fkey(F)))%2 // where reroute sends F once worker 0 is out
	b := 3 - a
	r.send(F, 4, 0) // one batch: all four in worker 0's ring
	r.send(G, r.e.workers[a].rings[0].Cap()-1, a)
	r.e.Flush() // a's ring is one short of full: F's first packet fills it

	ra := r.e.workers[a].rings[0]
	go func() { // a dies, unseen, once the drain blocks on its full ring
		for ra.Len() < ra.Cap() {
			time.Sleep(50 * time.Microsecond)
		}
		r.e.workers[a].state.Store(wsDead)
	}()
	done := make(chan struct{})
	go func() { // b retires whatever reaches it
		defer close(done)
		buf := make([]*packet.Packet, 16)
		for got := 0; got < r.offered; {
			n := r.e.workers[b].rings[0].PopBatch(buf)
			for _, p := range buf[:n] {
				r.log = append(r.log, delivery{b, p.Flow, p.FlowSeq})
			}
			got += n
			r.e.workers[b].retired[0].Add(uint64(n))
			r.e.workers[b].processed.Add(uint64(n))
			time.Sleep(50 * time.Microsecond)
		}
	}()
	r.e.quarantine(0)
	r.e.reapLate(r.e.quarantine) // a, unless the drain recovered it
	r.e.Flush()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker b never received every packet")
	}
	if by := r.deliveredBy(F); by[b] != 4 {
		t.Fatalf("flow F delivered by %v, want all 4 on worker %d", by, b)
	}
	if res := r.finish(); res.WorkerDeaths != 2 || res.Dropped != 0 {
		t.Fatalf("deaths %d dropped %d, want 2 and 0", res.WorkerDeaths, res.Dropped)
	}
}

// svcSched routes every packet to worker Service % n on both owners, so
// a test places each packet by its service.
type svcSched struct{ n int }

func (s svcSched) Name() string                              { return "svc" }
func (s svcSched) Target(p *packet.Packet, _ npsim.View) int { return s.Forward(p) }
func (s svcSched) Forward(p *packet.Packet) int              { return int(p.Service) % s.n }
func (s svcSched) Generation() uint64                        { return 0 }
func (s svcSched) Snapshot(sim.Time) npsim.Forwarder         { return s }

// boundRig runs one lane owner of single-packet flows with every sweep
// checked against the fence table's bound (newLane): a sweep runs only
// when a new flow meets exactly flowCap entries, it frees at least half
// of them, and the table never has more slots than flowCap entries need.
type boundRig struct {
	*ownerRig
	t       *testing.T
	next    int             // flow counter: fkey(next) is the next fresh flow
	sweeps  [2]atomic.Int64 // per lane
	heldAt  [2]atomic.Int64 // per lane: sweeps while the workers were held
	held    atomic.Bool     // the handler blocks on release while set
	release chan struct{}
}

func newBoundRig(t *testing.T, shards int, cfg Config) *boundRig {
	r := &boundRig{t: t, release: make(chan struct{})}
	sweepHook = func(l *lane, freed int) {
		if before := l.flows.Len() + freed; before != l.flowCap || 2*freed < l.flowCap {
			t.Errorf("lane %d swept %d of %d entries (cap %d): want a sweep at the cap that frees at least half", l.id, freed, before, l.flowCap)
		}
		if got, want := l.flows.Slots(), flowtab.New[flowState](l.flowCap).Slots(); got > want {
			t.Errorf("lane %d table has %d slots, %d hold flowCap %d entries", l.id, got, want, l.flowCap)
		}
		r.sweeps[l.id].Add(1)
		if r.held.Load() {
			r.heldAt[l.id].Add(1)
		}
	}
	t.Cleanup(func() {
		sweepHook = nil
		r.unhold() // a failed test must not leave workers blocked
	})
	cfg.Sched, cfg.Policy, cfg.Dispatchers = svcSched{n: cfg.Workers}, BlockWhenFull, shards
	cfg.Handler = func(int, *packet.Packet) {
		if r.held.Load() {
			<-r.release
		}
	}
	r.ownerRig = owner{"", shards}.start(t, cfg)
	return r
}

// unhold releases the workers held in the handler.
func (r *boundRig) unhold() {
	if r.held.Swap(false) {
		close(r.release)
	}
}

// send offers one packet of a fresh flow that lands on lane l, bound
// for worker w. Every offer must be accepted.
func (r *boundRig) send(l, w int) {
	for ; int(crc.FlowHash(fkey(r.next)))%r.nlanes != l; r.next++ {
	}
	f := fkey(r.next)
	r.next++
	if !r.offer(&packet.Packet{ID: uint64(r.next), Flow: f, Service: packet.ServiceID(w), Size: 64}) {
		r.t.Fatalf("new flow %d refused", r.next)
	}
	if r.next%feedYield == 0 {
		stdrt.Gosched()
	}
}

// finish stops the owner and checks that nothing was lost or reordered
// and that the tables end inside the bound.
func (r *boundRig) finish() {
	r.t.Helper()
	res := r.stop()
	checkConservation(r.t, res)
	if res.Dropped != 0 || res.OutOfOrder != 0 {
		r.t.Fatalf("dropped %d, out of order %d: want 0 and 0", res.Dropped, res.OutOfOrder)
	}
	for _, l := range r.lanes {
		if l.flows.Len() > l.flowCap || l.flows.Slots() > flowtab.New[flowState](l.flowCap).Slots() {
			r.t.Fatalf("lane %d ends with %d entries in %d slots, cap %d", l.id, l.flows.Len(), l.flows.Slots(), l.flowCap)
		}
		if r.sweeps[l.id].Load() == 0 {
			r.t.Fatalf("lane %d never swept", l.id)
		}
	}
}

// TestFenceTableBoundedByInFlight pins the fence table's bound on both
// lane owners. stream pushes 2^18 single-packet flows through. held
// first leaves flowCap + 1 − (the flows a held lane surely takes)
// drained entries in each table, then holds every worker in its handler
// with a batch in service and fills every ring, so each table reaches
// flowCap while as many flows are in flight as the rings allow; then it
// releases the workers and goes on with new flows. Every insert
// succeeds and every sweep frees at least half.
func TestFenceTableBoundedByInFlight(t *testing.T) {
	for _, owner := range []struct {
		name   string
		shards int
	}{{"Engine", 0}, {"Sharded", 2}} {
		t.Run(owner.name+"/stream", func(t *testing.T) {
			r := newBoundRig(t, owner.shards, Config{Workers: 2, RingCap: 256, Batch: 32})
			for i := 0; i < 1<<18; i++ {
				r.send(i%r.nlanes, i/r.nlanes%2)
			}
			r.finish()
		})
		t.Run(owner.name+"/held", func(t *testing.T) {
			const workers, ringCap, batch = 2, 16, 4
			r := newBoundRig(t, owner.shards, Config{Workers: workers, RingCap: ringCap, Batch: batch})
			// Every held worker ends with one batch in service and the lane
			// owns it on Engine, so Engine's lane takes ringCap + batch per
			// worker (the dispatcher waits out the first pop). A held worker
			// may be serving the other shard's batch, and a shard blocks on
			// the first full ring, so a shard surely takes only its rings.
			heldMin := workers * ringCap
			if owner.shards == 0 {
				heldMin += workers * batch
			}
			flowCap := r.lanes[0].flowCap
			for l := 0; l < r.nlanes; l++ {
				for i := 0; i < flowCap-heldMin+1; i++ {
					r.send(l, i%workers)
				}
			}
			r.flush()
			drained(t, r.plane)

			r.held.Store(true)
			for l := 0; l < r.nlanes; l++ {
				for i := 0; i < workers*(ringCap+batch); i++ {
					r.send(l, i%workers)
				}
			}
			for l := 0; l < r.nlanes; l++ {
				for deadline := time.Now().Add(10 * time.Second); r.heldAt[l].Load() == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("lane %d never swept while the workers were held", l)
					}
				}
			}
			r.unhold()

			for i := 0; i < 8*flowCap*r.nlanes; i++ {
				r.send(i%r.nlanes, i/r.nlanes%workers)
			}
			r.finish()
		})
	}
}

// TestSweepEndsOpenFenceSpans: in a flap storm over small rings the
// table sweeps every few dozen new flows, and a flow can be forgotten
// while its fence span is open — its old worker drained before its next
// packet came. The span must end there, not vanish: at Stop every
// EvFenceStart is matched by an EvFenceEnd or by an entry still holding
// its span open.
func TestSweepEndsOpenFenceSpans(t *testing.T) {
	rec := obs.NewRecorder(1 << 16)
	e, err := New(Config{Workers: 4, RingCap: 16, Batch: 4, Sched: &flapSched{n: 4, period: 300},
		Policy: BlockWhenFull, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e.Dispatch, e.Now, 60000, 2, 7)
	res := e.Stop()
	checkConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("%d out-of-order departures", res.OutOfOrder)
	}
	open := uint64(0)
	e.flows.Range(func(_ packet.FlowKey, _ uint16, st flowState) bool {
		if st.fencedAt != 0 {
			open++
		}
		return true
	})
	starts, ends := rec.Count(obs.EvFenceStart), rec.Count(obs.EvFenceEnd)
	if starts != ends+open {
		t.Fatalf("%d fence spans opened, %d ended, %d still open at Stop: %d lost", starts, ends, open, int64(starts)-int64(ends+open))
	}
	swept := 0
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvFenceEnd && ev.Core == -1 {
			swept++
		}
	}
	if swept == 0 {
		t.Fatalf("no span among the last %d events was ended by a sweep (%d spans): the storm missed the path", len(rec.Events()), starts)
	}
	t.Logf("spans: %d opened, %d ended (%d of the buffered ends by a sweep), %d open at Stop", starts, ends, swept, open)
}
