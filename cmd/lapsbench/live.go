package main

import (
	"context"
	"fmt"
	"net"
	stdrt "runtime"
	"sync/atomic"
	"syscall"
	"time"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/ingress"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
	rt "laps/internal/runtime"
	"laps/internal/sim"
)

// The shape every live workload shares (see README.md).
const (
	liveWorkers = 4
	ringCap     = 1024
	engineBatch = 32
	sampleEvery = 64 // the Handler times one packet in 64, per worker

	paceGap    = 32 * time.Microsecond  // engine_paced: a burst is due every 32 µs (1 000 000 pkt/s)
	sleepAhead = 200 * time.Microsecond // the pacer sleeps when earlier than this, yields otherwise
	lateLimit  = 1000.0                 // µs: a paced repetition whose generator ran later than this at p99 is invalid

	udpConns  = 2               // sender connections and SO_REUSEPORT sockets
	udpWindow = 64 * burstLen   // credit window: at most 64 datagrams' worth of packets in flight
	udpDrain  = 2 * time.Second // how long the sender waits for the last datagrams to be read
	flapEvery = 20000           // engine_storm: every flow moves one worker on after this many decisions
	churnCap  = 1 << 16         // sharded_churn: FlowBudget, far below the ~1.7 M flows visited
	caidaRecs = 1 << 20         // CAIDA-like record array, cycled with continuing sequence numbers
)

type engineKind int

const (
	engLAPS    engineKind = iota // runtime.Engine, core.LAPS inline
	engFlap                      // runtime.Engine, harness flap scheduler (no core, no afd)
	engSharded                   // runtime.Sharded, Dispatchers 2, core.LAPS on the control plane
)

type feedKind int

const (
	feedClosed feedKind = iota // next burst as soon as the engine took the last (BlockWhenFull)
	feedPaced                  // open loop: a burst every paceGap, timed from when it was due
	feedUDP                    // ingress.Sender → loopback → ingress.Group, closed by a credit window
)

// liveSpec is one live workload's configuration.
type liveSpec struct {
	records func(seed uint64, n int) []rec
	recCap  int // record array length at scale 1; 0 means one record per packet
	pkts    int // packets per repetition at scale 1
	engine  engineKind
	feed    feedKind
	budget  int // FlowBudget (MemoryAuto); 0 keeps exact per-flow state
}

// flapSched is engine_storm's scheduler: each service's traffic goes to
// one worker, and the assignment rotates by one worker every flapEvery
// decisions, so every flow alive across a rotation migrates and every
// migration opens and closes a drain fence. Placing by service keeps the
// four workers evenly loaded whatever the seed; placing by flow hash left
// the load to where a seed's elephants happened to hash, and the spread
// of pps over seeds was half again as wide.
type flapSched struct{ n uint64 }

func (s *flapSched) Name() string { return "flap" }

func (s *flapSched) Target(p *packet.Packet, _ npsim.View) int {
	s.n++
	return int((uint64(p.Service) + s.n/flapEvery) % liveWorkers)
}

// liveEngine drives either engine through the same hooks, the way
// laps.Run does.
type liveEngine struct {
	start func(context.Context)
	burst func([]*packet.Packet) int
	flush func()
	stop  func() *rt.Result
	laps  *core.LAPS // nil under the flap scheduler
}

func (s *liveSpec) build(seed uint64, pool *packet.Pool, handler func(int, *packet.Packet), reg *telemetry.Registry) (*liveEngine, error) {
	cfg := rt.Config{
		Workers: liveWorkers, RingCap: ringCap, Batch: engineBatch,
		Policy: rt.BlockWhenFull, Pool: pool, Handler: handler, Telemetry: reg,
	}
	le := &liveEngine{}
	if s.engine == engFlap {
		cfg.Sched = &flapSched{}
	} else {
		le.laps = core.New(core.Config{
			TotalCores: liveWorkers, Services: packet.NumServices, AFD: afd.Config{Seed: seed},
		})
		cfg.Sched = le.laps
	}
	if s.engine != engSharded {
		e, err := rt.New(cfg)
		if err != nil {
			return nil, err
		}
		le.start, le.burst, le.flush, le.stop = e.Start, e.DispatchBurst, e.Flush, e.Stop
		return le, nil
	}
	cfg.Dispatchers = 2
	cfg.FlowBudget, cfg.Memory = s.budget, npsim.MemoryAuto
	e, err := rt.NewSharded(cfg)
	if err != nil {
		return nil, err
	}
	// Shards drain their own ingress rings when idle: nothing to flush.
	le.start, le.burst, le.flush, le.stop = e.Start, e.IngestBurst, func() {}, e.Stop
	return le, nil
}

// inputs is what set-up hands the repetitions.
type inputs struct {
	seed uint64
	recs []rec
	pkts int // packets per repetition (live workloads)
	// window is sim_t5's traffic window in simulated time.
	window sim.Time
}

func (s *liveSpec) setup(seed uint64, scale float64) (*inputs, error) {
	in := &inputs{seed: seed, pkts: roundBurst(int(float64(s.pkts) * scale))}
	n := in.pkts
	if s.recCap > 0 && s.recCap < n {
		n = s.recCap
	}
	in.recs = s.records(seed, n)
	// Engine construction (and socket binding on UDP) is part of
	// set-up time; each repetition then builds its own fresh engine.
	eng, err := s.build(seed, packet.NewPool(), nil, nil)
	if err != nil {
		return nil, err
	}
	if s.feed == feedUDP {
		conns, _, err := ingress.ListenGroup("127.0.0.1:0", udpConns)
		if err != nil {
			return nil, err
		}
		for _, c := range conns {
			c.Close() //nolint:errcheck // bound only to price the bind
		}
	}
	eng.start(context.Background())
	eng.stop()
	return in, nil
}

// sampler is the application Handler every live workload installs: each
// worker times one packet in sampleEvery from its Arrival stamp to the
// Handler call, into its own preallocated lane.
type sampler struct {
	epoch time.Time
	lanes [liveWorkers]sampleLane
}

type sampleLane struct {
	n   uint64
	lat []int64
	_   [64]byte // keep the workers' counters on separate cache lines
}

func newSampler(pkts int) *sampler {
	s := &sampler{}
	for i := range s.lanes {
		s.lanes[i].lat = make([]int64, 0, pkts/sampleEvery+1)
	}
	return s
}

func (s *sampler) now() int64 { return int64(time.Since(s.epoch)) }

func (s *sampler) handle(worker int, p *packet.Packet) {
	l := &s.lanes[worker]
	l.n++
	if l.n%sampleEvery == 0 {
		l.lat = append(l.lat, s.now()-int64(p.Arrival))
	}
}

// micros merges the lanes into one µs sample set.
func (s *sampler) micros() []float64 {
	n := 0
	for i := range s.lanes {
		n += len(s.lanes[i].lat)
	}
	out := make([]float64, 0, n)
	for i := range s.lanes {
		for _, ns := range s.lanes[i].lat {
			out = append(out, float64(ns)/1e3)
		}
	}
	return out
}

// repOut is everything one repetition measured.
type repOut struct {
	offered, retired uint64
	failed           uint64 // packets lost plus packets truly out of order
	wall, cpu        time.Duration
	lat              []float64 // µs
	heapMB           float64
	late             []float64 // µs, engine_paced only
	violations       []string

	// Live workloads.
	res       *rt.Result
	laps      *core.LAPS
	ingress   *ingress.Stats
	sockets   []ingress.Stats
	senderCPU time.Duration
	sinkNs    atomic.Int64 // udp_loopback, traced: time the socket readers spent inside IngestBurst
	tracer    *tracer
	reg       *telemetry.Registry

	// sim_t5.
	simOut *simOut
	events *obs.Recorder // the traced repetition's control-plane events
}

// pps is the repetition's throughput: packets retired per wall second.
func (o *repOut) pps() float64 { return float64(o.retired) / o.wall.Seconds() }

func heapAlloc() uint64 {
	var ms stdrt.MemStats
	stdrt.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// settleHeap collects twice: the second cycle frees what sync.Pool's
// victim cache kept alive through the first.
func settleHeap() uint64 {
	stdrt.GC()
	stdrt.GC()
	return heapAlloc()
}

// rep runs one repetition against a fresh engine. A traced repetition
// attaches a telemetry registry and a span tracer, and pins the feeder
// to its OS thread so RUSAGE_THREAD prices the sender alone.
func (s *liveSpec) rep(in *inputs, traced bool) (*repOut, error) {
	out := &repOut{}
	smp := newSampler(in.pkts)
	if traced {
		out.tracer, out.reg = newTracer(), telemetry.NewRegistry()
		stdrt.LockOSThread()
		defer stdrt.UnlockOSThread()
	}
	if s.feed == feedPaced {
		out.late = make([]float64, 0, in.pkts/burstLen)
	}
	// Harness buffers are allocated above this line: heap_mb is the
	// engine's retained heap, not the harness's.
	heap0 := settleHeap()
	pool := packet.NewPool()
	eng, err := s.build(in.seed, pool, smp.handle, out.reg)
	if err != nil {
		return nil, err
	}
	out.laps = eng.laps
	if s.feed == feedUDP {
		err = s.feedUDP(eng, in, pool, smp, out)
	} else {
		s.feedDirect(eng, in, pool, smp, out)
	}
	if err != nil {
		return nil, err
	}
	heap1 := settleHeap()
	stdrt.KeepAlive(eng)
	if heap1 > heap0 {
		out.heapMB = float64(heap1-heap0) / (1 << 20)
	}
	out.lat = smp.micros()
	out.check()
	return out, nil
}

// check is the per-repetition correctness gate for live workloads.
func (o *repOut) check() {
	r := o.res
	o.retired = r.Processed
	trueOOO := r.OutOfOrder - r.EstimatedOOO
	if r.Processed+r.Dropped != o.offered {
		o.violations = append(o.violations, fmt.Sprintf("conservation: processed %d + dropped %d != offered %d", r.Processed, r.Dropped, o.offered))
	}
	if r.Dropped != 0 {
		o.violations = append(o.violations, fmt.Sprintf("loss: %d packets dropped under BlockWhenFull", r.Dropped))
	}
	if r.Forced != 0 {
		o.violations = append(o.violations, fmt.Sprintf("forced fence releases: %d", r.Forced))
	}
	if trueOOO != 0 {
		o.violations = append(o.violations, fmt.Sprintf("reordering: %d out of order, %d of them sketch estimates", r.OutOfOrder, r.EstimatedOOO))
	}
	if o.ingress != nil && o.ingress.Malformed != 0 {
		o.violations = append(o.violations, fmt.Sprintf("ingress: %d malformed datagrams", o.ingress.Malformed))
	}
	if o.offered > r.Processed {
		o.failed = o.offered - r.Processed
	}
	o.failed += trueOOO
}

// feedDirect drives the engine in process, closed loop or paced.
func (s *liveSpec) feedDirect(eng *liveEngine, in *inputs, pool *packet.Pool, smp *sampler, out *repOut) {
	tr, recs := out.tracer, in.recs
	buf := make([]*packet.Packet, burstLen)
	eng.start(context.Background())
	root := tr.open(spRep)
	cpu0 := cpuTime(syscall.RUSAGE_SELF)
	smp.epoch = time.Now()
	var id uint64
	pass, off := 0, 0
	for b := 0; b*burstLen < in.pkts; b++ {
		stamp := smp.now()
		if s.feed == feedPaced {
			// Timed from the due instant: a stall is charged to
			// every packet it delays.
			due := int64(b) * int64(paceGap)
			out.late = append(out.late, float64(waitUntil(smp, due, eng.flush))/1e3)
			stamp = due
		}
		t := tr.begin()
		for i := range buf {
			p := pool.Get()
			id++
			recs[off+i].fill(p, id, pass, stamp)
			buf[i] = p
		}
		tr.end(spFill, root, b, t)
		t = tr.begin()
		eng.burst(buf)
		tr.end(spDispatch, root, b, t)
		if off += burstLen; off == len(recs) {
			off, pass = 0, pass+1
		}
	}
	t := tr.begin()
	out.res = eng.stop()
	tr.end(spStop, root, 0, t)
	out.wall = time.Since(smp.epoch)
	out.cpu = cpuTime(syscall.RUSAGE_SELF) - cpu0
	tr.close(root)
	out.offered = uint64(in.pkts)
}

// waitUntil holds the pacer until due (ns since the epoch) and returns
// how late it then is. It publishes staged packets before idling, sleeps
// while far ahead and yields while close: a spinning pacer on a 2-CPU
// host starves the workers it is timing (README.md).
func waitUntil(smp *sampler, due int64, flush func()) int64 {
	now := smp.now()
	if now >= due {
		return now - due
	}
	flush()
	for now < due {
		if ahead := time.Duration(due - now); ahead > sleepAhead {
			time.Sleep(ahead - sleepAhead/2)
		} else {
			stdrt.Gosched()
		}
		now = smp.now()
	}
	return now - due
}

// feedUDP wires the front door the way laps.Run's ingress mode does —
// Group → BurstSink → Sharded.IngestBurst — and drives it from one
// sender goroutine over the loopback interface (no real link).
func (s *liveSpec) feedUDP(eng *liveEngine, in *inputs, pool *packet.Pool, smp *sampler, out *repOut) error {
	tr := out.tracer
	conns, _, err := ingress.ListenGroup("127.0.0.1:0", udpConns)
	if err != nil {
		return err
	}
	var fill *telemetry.Hist
	if out.reg != nil {
		fill = out.reg.NewHist(telemetry.HistOpts{
			Name: "laps_ingress_batch_fill_percent", MinExp: 0, MaxExp: 7, Lanes: len(conns),
		})
	}
	smp.epoch = time.Now()
	sink := func(ps []*packet.Packet) { eng.burst(ps) }
	if tr != nil {
		// The dispatch span here is the readers', not the harness's: the
		// group serialises its sockets' hand-offs, the counter is atomic.
		sink = func(ps []*packet.Packet) {
			t0 := time.Now()
			eng.burst(ps)
			out.sinkNs.Add(int64(time.Since(t0)))
		}
	}
	grp, err := ingress.NewGroup(ingress.GroupConfig{
		Conns: conns, AdaptiveBatch: true, Pool: pool, FillHist: fill,
		BurstSink: sink,
		Flush:     eng.flush,
		Clock:     func() sim.Time { return sim.Time(smp.now()) },
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	eng.start(ctx)
	grp.Start(ctx)
	fan, err := dialFanout(grp)
	if err != nil {
		grp.Stop()
		eng.stop()
		return err
	}
	defer fan.close()

	root := tr.open(spRep)
	cpu0, thr0 := cpuTime(syscall.RUSAGE_SELF), cpuTime(rusageThread)
	t0 := time.Now()
	recs := in.recs
	sent := fan.sent()
	pass, off := 0, 0
	for b := 0; b*burstLen < in.pkts; b++ {
		t := tr.begin()
		for i := off; i < off+burstLen; i++ {
			r := &recs[i]
			err := fan.senders[r.conn].SendRecord(ingress.Record{
				Flow: r.flow, Service: packet.ServiceID(r.svc), Size: int(r.size),
				Seq: uint64(r.seq) + uint64(pass)*uint64(r.per),
			})
			if err != nil {
				return err
			}
		}
		tr.end(spSend, root, b, t)
		if off += burstLen; off == len(recs) {
			off, pass = 0, pass+1
		}
		// The credit window closes the loop: the sender measures what
		// the path can carry, not what the kernel can drop.
		for sent += burstLen; sent-grp.Packets() > udpWindow; {
			stdrt.Gosched()
		}
	}
	for _, snd := range fan.uniq {
		if err := snd.Flush(); err != nil {
			return err
		}
	}
	for deadline := time.Now().Add(udpDrain); grp.Packets() < sent && time.Now().Before(deadline); {
		stdrt.Gosched()
	}
	out.senderCPU = cpuTime(rusageThread) - thr0
	// Sockets stop (and drain) before the engine drains its rings,
	// as in laps.Run.
	st := grp.Stop()
	t := tr.begin()
	out.res = eng.stop()
	tr.end(spStop, root, 0, t)
	out.wall = time.Since(t0)
	out.cpu = cpuTime(syscall.RUSAGE_SELF) - cpu0
	tr.close(root)
	if err := grp.Err(); err != nil {
		return fmt.Errorf("ingress receive: %w", err)
	}
	out.ingress, out.sockets = &st, grp.SocketStats()
	out.offered = fan.sent()
	return nil
}

// fanout is the sender side: one connected socket and one ingress.Sender
// per receiving socket, flows pinned to a connection by CRC16 (rec.conn).
type fanout struct {
	conns   []net.Conn
	uniq    []*ingress.Sender         // one per receiving socket
	senders [udpConns]*ingress.Sender // rec.conn → sender
	probes  uint64                    // records sent by connections that were probed and dropped
}

// dialFanout dials until every SO_REUSEPORT socket has a connection of
// its own. The kernel picks the socket by a keyed hash of the 4-tuple,
// so two fresh source ports land on one socket half the time and the
// run would be bimodal; a one-record probe datagram shows where a
// connection lands, and connections that double up are dropped. The
// probes are ordinary packets (their own flows) and count as offered.
func dialFanout(grp *ingress.Group) (*fanout, error) {
	f := &fanout{}
	ls := grp.Listeners()
	f.uniq = make([]*ingress.Sender, len(ls))
	for attempt, found := 0, 0; found < len(ls); attempt++ {
		if attempt == 64 {
			f.close()
			return nil, fmt.Errorf("no connection reached every one of the %d sockets in 64 dials", len(ls))
		}
		c, err := net.Dial("udp", grp.LocalAddr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		f.conns = append(f.conns, c) // surplus connections stay open, idle, until close
		snd := ingress.NewSender(c, burstLen)
		landed, err := probe(snd, ls, attempt)
		if err != nil {
			f.close()
			return nil, err
		}
		if f.uniq[landed] != nil {
			f.probes += snd.Sent()
			continue
		}
		f.uniq[landed] = snd
		found++
	}
	// On a platform without SO_REUSEPORT the group has one socket and
	// both connection slots share its sender.
	for i := range f.senders {
		f.senders[i] = f.uniq[i%len(f.uniq)]
	}
	return f, nil
}

// probe sends one record of a flow of its own and reports which listener
// received it.
func probe(snd *ingress.Sender, ls []*ingress.Listener, attempt int) (int, error) {
	before := make([]uint64, len(ls))
	for i, l := range ls {
		before[i] = l.Datagrams()
	}
	flow := packet.FlowKey{SrcIP: 0x7f000001, DstIP: 0x7f000001, SrcPort: uint16(attempt), DstPort: 9, Proto: packet.ProtoUDP}
	if err := snd.Send(flow, 0, 64); err != nil {
		return 0, err
	}
	if err := snd.Flush(); err != nil {
		return 0, err
	}
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); stdrt.Gosched() {
		for i, l := range ls {
			if l.Datagrams() > before[i] {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("probe datagram was not received within 1s")
}

// sent is every record handed to a sender, probes included.
func (f *fanout) sent() uint64 {
	n := f.probes
	for _, s := range f.uniq {
		n += s.Sent()
	}
	return n
}

func (f *fanout) close() {
	for _, c := range f.conns {
		c.Close() //nolint:errcheck // teardown
	}
}
