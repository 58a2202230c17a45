package ingress

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"laps/internal/crc"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
	"laps/internal/sim"
)

// Config parameterises a Listener.
type Config struct {
	// Conn is the bound socket to read (required, normally *net.UDPConn
	// from net.ListenPacket("udp", ...)). The Listener takes ownership:
	// Stop closes it.
	Conn net.PacketConn
	// Batch is the number of datagrams read per receive batch (the
	// recvmmsg vector length on Linux); 0 means 32. With AdaptiveBatch
	// it is the initial length.
	Batch int
	// AdaptiveBatch lets the receive vector grow and shrink with
	// observed batch fill: a window of mostly-full batches doubles the
	// vector (amortise more datagrams per syscall while the kernel
	// buffer backs up), a window of mostly-empty ones halves it. Linux
	// recvmmsg only; the portable one-datagram loop has no vector to
	// size. See docs/INGRESS.md "Adaptive receive batching".
	AdaptiveBatch bool
	// MaxBatch caps the adaptive vector; 0 means 256 (clamped up to
	// Batch). Ignored without AdaptiveBatch — receive buffers are
	// preallocated for the cap, so the steady state stays 0 allocs/op.
	MaxBatch int
	// FillHist, when non-nil, records every receive batch's fill —
	// datagrams received as a percentage of vector slots offered — into
	// lane FillLane. Lanes are single-writer: a Group gives each socket
	// its own lane.
	FillHist *telemetry.Hist
	// FillLane is this listener's FillHist lane.
	FillLane int
	// IDOffset and IDStride partition packet IDs between the listeners
	// of a Group: listener i stamps IDOffset+IDStride, IDOffset+2*IDStride, ...
	// so IDs stay unique across sockets and strictly increasing per
	// socket. Zero values mean offset 0, stride 1 (the single-listener
	// behavior).
	IDOffset, IDStride uint64
	// Pool supplies the decoded packet descriptors. Nil allocates per
	// packet; wire the engine's pool in for a zero-alloc steady state.
	Pool *packet.Pool
	// Sink receives every decoded packet, in datagram order, on the
	// reader goroutine. The sink owns the packet (hand it to the
	// dispatcher or return it to the pool); the listener never touches
	// it again. Exactly one of Sink and BurstSink must be set.
	Sink func(*packet.Packet)
	// BurstSink receives each decoded datagram's packets as one slice,
	// in datagram order, on the reader goroutine — the zero-copy handoff
	// into the engine's burst dispatch path. The sink owns the packets;
	// the slice itself is the listener's and is reused for the next
	// datagram the moment the call returns, so the sink must not retain
	// it. Exactly one of Sink and BurstSink must be set.
	BurstSink func([]*packet.Packet)
	// Flush, when non-nil, runs on the reader goroutine right before it
	// blocks waiting for more datagrams — the hook the engine uses to
	// publish partially staged dispatch batches so a pausing sender
	// never strands packets in the stage buffers.
	Flush func()
	// ReadBuffer resizes the socket's kernel receive buffer (SO_RCVBUF)
	// when positive. The kernel clamps it to net.core.rmem_max; see
	// docs/INGRESS.md for tuning.
	ReadBuffer int
	// Clock stamps Packet.Arrival; nil uses nanoseconds since Start.
	Clock func() sim.Time
	// DrainGrace bounds how long Stop keeps reading to drain datagrams
	// already queued in the kernel buffer; 0 means 500ms. Stop returns
	// as soon as the buffer is empty — the grace is a ceiling, not a
	// wait.
	DrainGrace time.Duration
}

// Stats are a Listener's receive-side counters. A Group's Stats sum
// the counters across its sockets (VectorLen and RcvBuf then report
// the maximum and the first socket respectively — see Group.Stats).
type Stats struct {
	Datagrams uint64 // datagrams received
	Packets   uint64 // records decoded and delivered to the sink
	Malformed uint64 // datagrams rejected by the wire decoder

	Batches      uint64 // receive batches that delivered >= 1 datagram
	BatchGrows   uint64 // adaptive vector doublings
	BatchShrinks uint64 // adaptive vector halvings
	VectorLen    int    // receive vector length now (1 on the portable path)

	// RcvBuf is the effective SO_RCVBUF in bytes, read back from the
	// kernel after the ReadBuffer request — the kernel clamps requests
	// to net.core.rmem_max and doubles the grant, so this is the number
	// rcvbuf tuning must be verified against (docs/INGRESS.md). 0 when
	// the socket exposes no raw descriptor to ask.
	RcvBuf int
}

// batchReceiver abstracts the platform receive path: recvmmsg vectors
// on Linux, a plain ReadFrom loop elsewhere (see batch_linux.go /
// batch_other.go). recv blocks until at least one datagram arrives (or
// the socket closes / the deadline passes), invoking onIdle once right
// before it would block; buf(i) is the i'th datagram, valid until the
// next recv call.
type batchReceiver interface {
	recv(onIdle func()) (int, error)
	buf(i int) []byte
	// offered is the number of vector slots the last recv put to the
	// kernel (1 on the portable path) — the denominator of the batch
	// fill ratio.
	offered() int
}

// vectorStats is the optional receiver face for adaptive-vector
// bookkeeping; only the Linux recvmmsg receiver has a vector to size.
type vectorStats interface {
	vectorLen() int
	adaptCounts() (grows, shrinks uint64)
}

// cacheLinePad keeps what one core writes off the lines another polls.
type cacheLinePad [64]byte

// Listener reads the LAPS wire format off one socket and feeds decoded,
// hash-primed packets to a sink. One reader goroutine per listener: the
// socket's kernel queue is FIFO and a single reader preserves it, so
// per-source arrival order survives into the engine.
type Listener struct {
	cfg   Config
	rx    batchReceiver
	pool  *packet.Pool
	sink  func(*packet.Packet)
	burst func([]*packet.Packet)
	bbuf  []*packet.Packet // burst staging, reused across datagrams
	// mag is the reader's own magazine of free descriptors: emit pops
	// from it and the pool is visited once per MagazineSize packets.
	mag   [packet.MagazineSize]*packet.Packet
	magN  int
	clock func() sim.Time
	// arrival is the datagram being decoded's arrival stamp.
	arrival sim.Time
	emitF   func(Record) // pre-bound emit, so deliver never allocates a closure
	fill    *telemetry.Hist
	lane    int

	start    time.Time
	nextID   uint64
	idStride uint64
	rcvbuf   int // effective SO_RCVBUF, read back at construction

	// The counters other goroutines poll (a credit window, a /metrics
	// scrape) sit on a cache line of their own, so a poll never takes
	// away the line the decode loop keeps its private state on.
	_         cacheLinePad
	datagrams atomic.Uint64
	packets   atomic.Uint64
	malformed atomic.Uint64
	batches   atomic.Uint64
	_         cacheLinePad

	stopping atomic.Bool
	busy     atomic.Bool // reader is delivering (or flushing), not parked in recv
	done     chan struct{}
	err      error // reader exit cause (set before done closes); nil = clean

	started, stopped bool
}

// New validates cfg, tunes the socket and builds a listener (reader not
// yet running).
func New(cfg Config) (*Listener, error) {
	if cfg.Conn == nil {
		return nil, fmt.Errorf("ingress: Config.Conn is required")
	}
	if (cfg.Sink == nil) == (cfg.BurstSink == nil) {
		return nil, fmt.Errorf("ingress: exactly one of Config.Sink and Config.BurstSink is required")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.MaxBatch < cfg.Batch {
		cfg.MaxBatch = cfg.Batch
	}
	if cfg.IDStride == 0 {
		cfg.IDStride = 1
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 500 * time.Millisecond
	}
	if cfg.ReadBuffer > 0 {
		if rb, ok := cfg.Conn.(interface{ SetReadBuffer(int) error }); ok {
			if err := rb.SetReadBuffer(cfg.ReadBuffer); err != nil {
				return nil, fmt.Errorf("ingress: SetReadBuffer(%d): %w", cfg.ReadBuffer, err)
			}
		}
	}
	l := &Listener{
		cfg:      cfg,
		pool:     cfg.Pool,
		sink:     cfg.Sink,
		burst:    cfg.BurstSink,
		clock:    cfg.Clock,
		fill:     cfg.FillHist,
		lane:     cfg.FillLane,
		nextID:   cfg.IDOffset,
		idStride: cfg.IDStride,
		rcvbuf:   readBackRcvBuf(cfg.Conn),
		start:    time.Now(),
		done:     make(chan struct{}),
	}
	if l.burst != nil {
		l.bbuf = make([]*packet.Packet, 0, MaxRecords)
	}
	if l.clock == nil {
		l.clock = func() sim.Time { return sim.Time(time.Since(l.start).Nanoseconds()) }
	}
	l.emitF = l.emit
	adapt := newVecAdapt(cfg.Batch, cfg.MaxBatch, cfg.AdaptiveBatch)
	rx, err := newBatchReceiver(cfg.Conn, adapt, MaxDatagram, &l.stopping)
	if err != nil {
		return nil, err
	}
	l.rx = rx
	return l, nil
}

// LocalAddr reports the socket's bound address.
func (l *Listener) LocalAddr() net.Addr { return l.cfg.Conn.LocalAddr() }

// Stats returns a consistent-enough snapshot of the receive counters;
// safe from any goroutine mid-run.
func (l *Listener) Stats() Stats {
	st := Stats{
		Datagrams: l.datagrams.Load(),
		Packets:   l.packets.Load(),
		Malformed: l.malformed.Load(),
		Batches:   l.batches.Load(),
		VectorLen: 1,
		RcvBuf:    l.rcvbuf,
	}
	if vs, ok := l.rx.(vectorStats); ok {
		st.VectorLen = vs.vectorLen()
		st.BatchGrows, st.BatchShrinks = vs.adaptCounts()
	}
	return st
}

// Datagrams, Packets and Malformed expose the counters individually for
// telemetry-registry closures.
func (l *Listener) Datagrams() uint64 { return l.datagrams.Load() }
func (l *Listener) Packets() uint64   { return l.packets.Load() }
func (l *Listener) Malformed() uint64 { return l.malformed.Load() }

// Err reports why the reader exited: nil for a clean Stop (including
// the drain timeout), the socket error otherwise. Valid after Stop.
func (l *Listener) Err() error { return l.err }

// Start launches the reader goroutine. The context is advisory — Stop
// ends the listener — but a cancelled context also stops the read loop
// at the next batch boundary.
func (l *Listener) Start(ctx context.Context) {
	if l.started {
		panic("ingress: Listener started twice")
	}
	l.started = true
	if ctx == nil {
		ctx = context.Background()
	}
	go l.run(ctx)
}

// errWouldBlock is the receiver's way of saying "kernel buffer empty"
// while a drain is in progress — the clean end of the drain loop.
var errWouldBlock = errors.New("ingress: would block")

// run is the reader goroutine body. Stop's drain protocol plays out
// here: the expired-deadline poke is answered by re-arming the deadline
// to the drain grace and continuing to read, and with the stopping flag
// up the receive path turns would-block into errWouldBlock, so the loop
// exits the moment the kernel buffer is empty.
func (l *Listener) run(ctx context.Context) {
	defer close(l.done)
	defer l.pool.PutBatch(l.mag[:]) // popped slots are nil, which PutBatch skips
	// The busy flag brackets every stretch where the reader is doing
	// work outside the blocking receive — delivering a batch, or
	// running the flush hook (which may block on a Group's dispatch
	// mutex). drainByWatching reads it to tell "parked on an empty
	// socket" from "wedged in the sink with datagrams still queued".
	flush := l.cfg.Flush
	if flush != nil {
		inner := flush
		flush = func() {
			l.busy.Store(true)
			inner()
			l.busy.Store(false)
		}
	}
	draining := false
	for {
		n, err := l.rx.recv(flush)
		if n > 0 {
			l.busy.Store(true)
			l.batches.Add(1)
			// Batch fill as a percentage of offered vector slots — the
			// signal adaptive batching steers on, exposed so a scrape
			// shows whether the vector is sized to the traffic.
			l.fill.Record(l.lane, int64(100*n/l.rx.offered()))
		}
		for i := 0; i < n; i++ {
			l.deliver(l.rx.buf(i))
		}
		if n > 0 {
			l.busy.Store(false)
		}
		if err != nil {
			if l.stopping.Load() && !draining && errors.Is(err, os.ErrDeadlineExceeded) {
				draining = true
				if d, ok := l.cfg.Conn.(interface{ SetReadDeadline(time.Time) error }); ok {
					d.SetReadDeadline(time.Now().Add(l.cfg.DrainGrace)) //nolint:errcheck // Stop's Close is the backstop
					continue
				}
			}
			if !l.isShutdownErr(err) {
				l.err = err
			}
			return
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// isShutdownErr classifies reader-exit errors that are part of the
// normal Stop protocol: the drain completing (or timing out) and the
// eventual Close.
func (l *Listener) isShutdownErr(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return true
	}
	if l.stopping.Load() && (errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, errWouldBlock)) {
		return true
	}
	return false
}

// deliver decodes one datagram and hands its packets to the sink —
// one call per packet (Sink) or one call for the whole datagram
// (BurstSink). A datagram is one arrival event: its records share one
// Arrival stamp, read here, and are added to the packet counter in one
// step. A datagram that goes bad mid-way still delivers, and counts,
// the records decoded before the bad one, in both modes.
func (l *Listener) deliver(b []byte) {
	l.datagrams.Add(1)
	l.arrival = l.clock()
	n, err := DecodeDatagram(b, l.emitF)
	l.packets.Add(uint64(n))
	if err != nil {
		l.malformed.Add(1)
	}
	if len(l.bbuf) > 0 { // only burst mode stages (emit)
		l.burst(l.bbuf)
		// The sink owns the packets now; drop our references so the
		// reused slice never aliases live descriptors.
		for i := range l.bbuf {
			l.bbuf[i] = nil
		}
		l.bbuf = l.bbuf[:0]
	}
}

// emit is the per-record callback: fill a pooled descriptor, prime the
// CRC16 flow hash — this is the socket's hash point, the only one on
// the ingress path (docs/PERFORMANCE.md) — and hand it over (or stage
// it for the datagram's burst).
func (l *Listener) emit(r Record) {
	if l.magN == 0 {
		l.pool.GetBatch(l.mag[:])
		l.magN = len(l.mag)
	}
	l.magN--
	p := l.mag[l.magN]
	l.mag[l.magN] = nil
	l.nextID += l.idStride
	p.ID = l.nextID
	p.Flow = r.Flow
	p.Service = r.Service
	p.Size = r.Size
	p.FlowSeq = r.Seq
	p.Arrival = l.arrival
	crc.Prime(p)
	if l.burst != nil {
		l.bbuf = append(l.bbuf, p)
		return
	}
	l.sink(p)
}

// Stop drains and ends the listener: datagrams already queued in the
// kernel buffer are read out (bounded by DrainGrace), the socket is
// closed, and the final counters returned. The sink sees no further
// packets after Stop returns.
//
// The drain protocol: set the stopping flag, poke the blocked reader
// with an already-expired read deadline, then let it re-enter the read
// loop with a DrainGrace deadline — the stopping flag turns would-block
// into a clean exit, so the reader stops the moment the kernel buffer
// is empty rather than waiting out the grace. Conns whose
// SetReadDeadline errors (wrapper conns sometimes stub it out) fall
// back to watching the datagram counter: the reader keeps consuming
// whatever is queued, and Stop closes the socket only once the counter
// goes quiet (or the grace runs out) — so queued datagrams still drain
// instead of being dropped by an immediate Close.
func (l *Listener) Stop() Stats {
	if !l.started || l.stopped {
		panic("ingress: Stop on a non-running listener")
	}
	l.stopped = true
	l.stopping.Store(true)
	if !l.pokeAndWait() {
		l.drainByWatching()
	}
	l.cfg.Conn.Close() //nolint:errcheck // read side already drained
	<-l.done
	return l.Stats()
}

// pokeAndWait runs the deadline-based half of the drain protocol. It
// reports false when the conn cannot be poked — SetReadDeadline is
// missing or returns an error — in which case Stop falls back to
// drainByWatching instead of closing a socket with datagrams still
// queued behind a blocked read.
func (l *Listener) pokeAndWait() bool {
	d, ok := l.cfg.Conn.(interface{ SetReadDeadline(time.Time) error })
	if !ok {
		return false
	}
	if err := d.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		return false
	}
	select {
	case <-l.done:
	case <-time.After(l.cfg.DrainGrace + time.Second):
		// Reader wedged past the grace (should not happen): the Close in
		// Stop forces it out.
	}
	return true
}

// drainByWatching is the drain fallback for conns that cannot be poked
// with a read deadline. The reader blocks only when the kernel buffer
// is empty, so progress on the datagram counter means queued data is
// still flowing; Stop waits until a few consecutive polls see no
// progress while the reader is parked in its blocking read (a stalled
// counter with the busy flag up means the reader is wedged in the sink
// with datagrams possibly still queued — that only times out at the
// DrainGrace ceiling), then lets Close force the reader out.
func (l *Listener) drainByWatching() {
	const (
		pollEvery = 2 * time.Millisecond
		idlePolls = 3
	)
	deadline := time.Now().Add(l.cfg.DrainGrace)
	last := l.datagrams.Load()
	idle := 0
	for idle < idlePolls && time.Now().Before(deadline) {
		select {
		case <-l.done:
			return
		case <-time.After(pollEvery):
		}
		if cur := l.datagrams.Load(); cur == last && !l.busy.Load() {
			idle++
		} else {
			idle, last = 0, cur
		}
	}
}
