package npsim

import (
	"fmt"

	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/stats"
)

// SharedTarget is returned by shared-queue schedulers (FCFS): the packet
// joins a single global queue served by whichever core frees up first.
const SharedTarget = -1

// noService marks a core whose I-cache holds no program yet.
const noService packet.ServiceID = 0xFF

// View is the read-only system state a scheduler may consult when
// placing a packet — mirroring what a hardware scheduler can see: the
// clock, queue occupancies and core idle times.
type View interface {
	// Now returns the current simulation time.
	Now() sim.Time
	// NumCores returns the number of processing cores.
	NumCores() int
	// QueueLen returns core c's input-queue occupancy, including the
	// packet currently being processed.
	QueueLen(c int) int
	// QueueCap returns the per-core input queue capacity.
	QueueCap() int
	// IdleFor returns how long core c has been completely idle (empty
	// queue, nothing processing); zero if it is busy.
	IdleFor(c int) sim.Time
}

// Scheduler decides the target core for each arriving packet.
// Implementations live in internal/sched and internal/core.
type Scheduler interface {
	// Name identifies the scheduler in result tables.
	Name() string
	// Target returns the core for p, or SharedTarget to use the global
	// shared queue (only valid when the system runs in shared mode).
	Target(p *packet.Packet, v View) int
}

// BurstScheduler is implemented by schedulers that can decide once for
// a run of back-to-back packets of a single flow and train on a weight
// that need not be the run's length — the contract the live runtime
// uses: one decision per flow run, and one batched detector observation
// for the weight the run's lane sampled. Burst dispatchers consult plain
// Schedulers once per run (the whole run follows the first packet's
// decision); implementing TargetN lets a scheduler account for the
// packets the run stands for.
type BurstScheduler interface {
	Scheduler
	// TargetN decides for a run of p's flow and records n references to
	// it: n is the run's weight — its length, or (in the live runtime) the
	// lane sampler's weight for it, which over a stream sums to within a
	// few packets of the packets seen. n == 0 means "decide, record
	// nothing". It must return the same core Target would return for the
	// run's first packet, apart from what the n references themselves
	// change.
	TargetN(p *packet.Packet, n int, v View) int
}

// Config parameterises the processor model. The defaults reproduce the
// paper's setup: 16 cores, 32-descriptor queues (per [32]), 0.8 µs flow
// migration penalty, 10 µs cold-cache penalty.
type Config struct {
	NumCores       int
	QueueCap       int
	FMPenalty      sim.Time
	CCPenalty      sim.Time
	Services       [packet.NumServices]ServiceDef
	SharedQueue    bool // FCFS mode: one global queue feeds all cores
	SharedQueueCap int  // 0 means NumCores × QueueCap

	// FlowBudget bounds per-flow state (reorder watermarks and the
	// flow-affinity table) according to Memory; 0 keeps exact unbounded
	// state. See TrackerConfig and docs/SCALE.md.
	FlowBudget int
	// Memory selects the bounding strategy past FlowBudget.
	Memory MemoryClass
}

// DefaultConfig returns the paper's processor configuration.
func DefaultConfig() Config {
	return Config{
		NumCores:  16,
		QueueCap:  32,
		FMPenalty: 800,   // 0.8 µs: "four cache misses, conservatively"
		CCPenalty: 10000, // 10 µs: cold I-cache refill for the smallest service
		Services:  DefaultServices(),
	}
}

// core is one IOP: an input queue (ring buffer) plus processing state.
type core struct {
	id        int
	ring      []*packet.Packet
	head, n   int
	busy      bool
	current   *packet.Packet
	lastSvc   packet.ServiceID
	idleSince sim.Time
	busySince sim.Time
	done      func() // pre-bound completion callback (avoids a closure per packet)

	busyTotal sim.Time        // accumulated busy time
	processed uint64          // packets completed on this core
	idleHist  stats.Histogram // durations (ns) of completed idle intervals
}

func (c *core) queueLen() int {
	n := c.n
	if c.busy {
		n++
	}
	return n
}

func (c *core) push(p *packet.Packet) bool {
	if c.n == len(c.ring) {
		return false
	}
	c.ring[(c.head+c.n)%len(c.ring)] = p
	c.n++
	return true
}

func (c *core) pop() *packet.Packet {
	if c.n == 0 {
		return nil
	}
	p := c.ring[c.head]
	c.ring[c.head] = nil
	c.head = (c.head + 1) % len(c.ring)
	c.n--
	return p
}

// System wires cores, a scheduler and the metric sinks onto a sim engine.
type System struct {
	eng   *sim.Engine
	cfg   Config
	sched Scheduler
	cores []*core

	shared    []*packet.Packet // FIFO shared queue (SharedQueue mode)
	sharedCap int

	// flowLast records, per flow, 1 + the last core it was enqueued on
	// (0 = never seen), so migration detection is a single probe of an
	// open-addressed table keyed by the packet's cached hash. Past the
	// flow budget it degrades to affCoarse: one entry per CRC16 hash
	// value, so migration detection becomes approximate at hash-bucket
	// granularity (collisions can over- or under-count migrations) but
	// memory stays constant.
	flowLast  *flowtab.Table[int32]
	affCoarse []int32 // nil until degraded; indexed by flow hash
	affHits   uint64  // affinity budget-crossing degrades
	reorder   *ReorderTracker
	m         Metrics
	rec       *obs.Recorder // nil = no telemetry

	// OnDepart, if set, takes every completed packet at departure.
	OnDepart func(*packet.Packet)

	// Free, if set, is the free list the injected descriptors came from,
	// and the system returns each one when its life ends: at a drop, or
	// at departure — unless OnDepart is set. Then the consumer owns the
	// departed packet (a re-order buffer keeps it well past the call)
	// and must Put it itself. Leave Free nil when the injector keeps
	// its packets.
	Free *packet.FreeList
}

// RecorderSetter is implemented by schedulers that can emit telemetry
// events (core.LAPS). System.SetRecorder forwards the recorder to the
// attached scheduler through this interface, so callers wire the whole
// stack with a single call.
type RecorderSetter interface {
	SetRecorder(*obs.Recorder)
}

// New builds a System. The scheduler may be nil only in SharedQueue mode.
func New(eng *sim.Engine, cfg Config, sched Scheduler) *System {
	if cfg.NumCores < 1 {
		panic("npsim: need at least one core")
	}
	if cfg.QueueCap < 1 {
		panic("npsim: need queue capacity >= 1")
	}
	if sched == nil && !cfg.SharedQueue {
		panic("npsim: per-core mode requires a scheduler")
	}
	if cfg.SharedQueueCap == 0 {
		cfg.SharedQueueCap = cfg.NumCores * cfg.QueueCap
	}
	affHint := 1 << 14
	if cfg.FlowBudget > 0 && cfg.FlowBudget < affHint {
		affHint = cfg.FlowBudget
	}
	s := &System{
		eng:       eng,
		cfg:       cfg,
		sched:     sched,
		sharedCap: cfg.SharedQueueCap,
		flowLast:  flowtab.New[int32](affHint),
		reorder:   NewTracker(TrackerConfig{FlowBudget: cfg.FlowBudget, Memory: cfg.Memory}),
	}
	if cfg.Memory == MemorySketch {
		// Bounded from the start: affinity at hash-bucket granularity.
		s.affCoarse = make([]int32, affBuckets)
	}
	for i := 0; i < cfg.NumCores; i++ {
		co := &core{
			id:      i,
			ring:    make([]*packet.Packet, cfg.QueueCap),
			lastSvc: noService,
		}
		co.done = func() { s.complete(co) }
		s.cores = append(s.cores, co)
	}
	return s
}

// Engine returns the simulation engine the system runs on.
func (s *System) Engine() *sim.Engine { return s.eng }

// Metrics returns the live metrics (read after the engine drains).
func (s *System) Metrics() *Metrics {
	s.m.EstimatedOOO = s.reorder.EstimatedOOO()
	s.m.FlowBudgetHits = s.affHits + s.reorder.BudgetHits()
	return &s.m
}

// affBuckets is the coarse affinity table size: one int32 per CRC16
// hash value (256 KB), covering the full hash space so every flow maps
// to a stable bucket.
const affBuckets = 1 << 16

// lastCoreRef returns the "1 + last core" cell for p's flow: an exact
// per-flow entry below the budget, a shared hash-bucket cell past it.
func (s *System) lastCoreRef(p *packet.Packet) *int32 {
	h := crc.PacketHash(p)
	if s.affCoarse != nil {
		return &s.affCoarse[h]
	}
	if s.cfg.FlowBudget > 0 && s.cfg.Memory != MemoryExact && s.flowLast.Len() > s.cfg.FlowBudget {
		s.degradeAffinity()
		return &s.affCoarse[h]
	}
	return s.flowLast.Ref(p.Flow, h)
}

// degradeAffinity switches migration tracking to hash-bucket
// granularity: seed each bucket from the exact entries hashing into it
// (last writer wins among collisions — affinity is a heuristic, unlike
// the reorder watermarks there is no invariant to preserve), then
// release the exact table.
func (s *System) degradeAffinity() {
	s.affCoarse = make([]int32, affBuckets)
	s.flowLast.Range(func(_ packet.FlowKey, h uint16, last int32) bool {
		s.affCoarse[h] = last
		return true
	})
	s.flowLast = flowtab.New[int32](1 << 4)
	s.affHits++
}

// SetRecorder attaches a telemetry recorder: drops and out-of-order
// departures are emitted as events, the recorder's clock is bound to the
// simulation engine, and the recorder is forwarded to the scheduler if
// it implements RecorderSetter. Passing nil detaches telemetry.
func (s *System) SetRecorder(r *obs.Recorder) {
	s.rec = r
	r.SetClock(s.eng.Now)
	if rs, ok := s.sched.(RecorderSetter); ok {
		rs.SetRecorder(r)
	}
}

// Probes returns sampler probes over the data-plane state: one queue-
// occupancy probe per core ("coreN.q"), the per-interval drop count
// ("drops") and the out-of-order departure rate per completed packet
// ("ooo-rate").
func (s *System) Probes() []obs.Probe {
	ps := make([]obs.Probe, 0, len(s.cores)+2)
	for _, co := range s.cores {
		co := co
		ps = append(ps, obs.Probe{
			Name: fmt.Sprintf("core%d.q", co.id),
			Fn:   func() float64 { return float64(co.queueLen()) },
		})
	}
	ps = append(ps,
		obs.RateProbe("drops", func() uint64 { return s.m.Dropped }, nil),
		obs.RateProbe("ooo-rate",
			func() uint64 { return s.m.OutOfOrder },
			func() uint64 { return s.m.Completed }),
	)
	return ps
}

// --- View implementation ---

// Now returns the current simulation time.
func (s *System) Now() sim.Time { return s.eng.Now() }

// NumCores returns the core count.
func (s *System) NumCores() int { return s.cfg.NumCores }

// QueueLen returns core c's occupancy including in-service packets.
func (s *System) QueueLen(c int) int { return s.cores[c].queueLen() }

// QueueCap returns the per-core queue capacity.
func (s *System) QueueCap() int { return s.cfg.QueueCap }

// IdleFor returns how long core c has been idle.
func (s *System) IdleFor(c int) sim.Time {
	co := s.cores[c]
	if co.busy || co.n > 0 {
		return 0
	}
	return s.eng.Now() - co.idleSince
}

// Inject offers one packet to the scheduler; it is the traffic
// generator's sink.
func (s *System) Inject(p *packet.Packet) {
	s.m.Injected++
	s.m.PerSvcInjected[p.Service]++
	crc.PacketHash(p) // ingress hash point: prime once, no-op if already primed

	if s.cfg.SharedQueue {
		s.injectShared(p)
		return
	}
	target := s.sched.Target(p, s)
	if target == SharedTarget {
		panic(fmt.Sprintf("npsim: scheduler %q returned SharedTarget in per-core mode", s.sched.Name()))
	}
	if target < 0 || target >= len(s.cores) {
		panic(fmt.Sprintf("npsim: scheduler %q returned invalid core %d", s.sched.Name(), target))
	}
	s.enqueue(p, s.cores[target])
}

// enqueue places p on core co's queue, accounting migrations and drops.
func (s *System) enqueue(p *packet.Packet, co *core) {
	if co.n == len(co.ring) && co.busy {
		s.m.Dropped++
		s.m.PerSvcDropped[p.Service]++
		if s.rec != nil {
			s.rec.Emit(obs.Event{Kind: obs.EvDrop, Service: int16(p.Service),
				Core: int32(co.id), Core2: -1, Flow: p.Flow, Val: int64(co.queueLen())})
		}
		s.Free.Put(p)
		return
	}
	last := s.lastCoreRef(p)
	if *last != 0 && int(*last-1) != co.id {
		p.Migrated = true
		s.m.Migrations++
	}
	*last = int32(co.id + 1)
	p.Enqueued = s.eng.Now()
	s.m.Enqueued++
	if !co.busy {
		// Core idle: begin processing immediately (the "queue" slot it
		// occupies is the execution slot).
		s.startProcessing(co, p)
		return
	}
	co.push(p)
}

// injectShared implements the FCFS single shared queue.
func (s *System) injectShared(p *packet.Packet) {
	// Hand to an idle core directly if any.
	for _, co := range s.cores {
		if !co.busy {
			last := s.lastCoreRef(p)
			if *last != 0 && int(*last-1) != co.id {
				p.Migrated = true
				s.m.Migrations++
			}
			*last = int32(co.id + 1)
			p.Enqueued = s.eng.Now()
			s.m.Enqueued++
			s.startProcessing(co, p)
			return
		}
	}
	if len(s.shared) >= s.sharedCap {
		s.m.Dropped++
		s.m.PerSvcDropped[p.Service]++
		if s.rec != nil {
			s.rec.Emit(obs.Event{Kind: obs.EvDrop, Service: int16(p.Service),
				Core: -1, Core2: -1, Flow: p.Flow, Val: int64(len(s.shared))})
		}
		s.Free.Put(p)
		return
	}
	p.Enqueued = s.eng.Now()
	s.m.Enqueued++
	s.shared = append(s.shared, p)
}

// startProcessing begins service of p on core co and schedules completion.
func (s *System) startProcessing(co *core, p *packet.Packet) {
	if co.idleSince >= 0 {
		// Close the idle interval that ends now.
		co.idleHist.Add(int64(s.eng.Now() - co.idleSince))
		co.idleSince = -1
	}
	d := s.cfg.Services[p.Service].ProcTime(p.Size)
	if p.Migrated {
		d += s.cfg.FMPenalty
		s.m.FMPenalties++
	}
	if co.lastSvc != p.Service {
		d += s.cfg.CCPenalty
		p.ColdMiss = true
		s.m.ColdCache++
	}
	co.lastSvc = p.Service
	co.busy = true
	co.current = p
	co.busySince = s.eng.Now()
	s.eng.After(d, co.done)
}

// complete finishes the in-service packet on co and pulls the next one.
func (s *System) complete(co *core) {
	p := co.current
	co.current = nil
	co.busy = false
	busy := s.eng.Now() - co.busySince
	s.m.BusyTime += busy
	co.busyTotal += busy
	co.processed++

	p.Departed = s.eng.Now()
	s.m.Completed++
	s.m.PerSvcDone[p.Service]++
	s.m.TotalLatency += p.Departed - p.Arrival
	s.m.Latency[p.Service].Add(int64(p.Departed - p.Arrival))
	if s.reorder.Record(p) {
		s.m.OutOfOrder++
		if s.rec != nil {
			s.rec.Emit(obs.Event{Kind: obs.EvOOODepart, Service: int16(p.Service),
				Core: int32(co.id), Core2: -1, Flow: p.Flow, Val: int64(p.FlowSeq)})
		}
	}
	if s.OnDepart != nil {
		s.OnDepart(p)
	} else {
		s.Free.Put(p)
	}

	// Pull the next packet: from the own ring, or the shared queue.
	if next := co.pop(); next != nil {
		co.idleSince = -1
		s.startProcessing(co, next)
		return
	}
	if s.cfg.SharedQueue && len(s.shared) > 0 {
		next := s.shared[0]
		copy(s.shared, s.shared[1:])
		s.shared = s.shared[:len(s.shared)-1]
		last := s.lastCoreRef(next)
		if *last != 0 && int(*last-1) != co.id {
			next.Migrated = true
			s.m.Migrations++
		}
		*last = int32(co.id + 1)
		s.startProcessing(co, next)
		return
	}
	co.idleSince = s.eng.Now()
}

// CoreReport is a per-core activity snapshot for energy and balance
// analysis.
type CoreReport struct {
	ID        int
	BusyTime  sim.Time
	Processed uint64
	// IdleIntervals is a log2 histogram (ns) of the core's completed
	// idle-gap durations; an interval open at snapshot time is closed at
	// the snapshot instant.
	IdleIntervals stats.Histogram
}

// CoreReports snapshots every core's activity as of now.
func (s *System) CoreReports() []CoreReport {
	out := make([]CoreReport, len(s.cores))
	for i, co := range s.cores {
		r := CoreReport{ID: co.id, BusyTime: co.busyTotal, Processed: co.processed}
		r.IdleIntervals = co.idleHist
		if !co.busy && co.n == 0 && co.idleSince >= 0 {
			r.IdleIntervals.Add(int64(s.eng.Now() - co.idleSince))
		}
		out[i] = r
	}
	return out
}
