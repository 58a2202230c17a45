package ingress

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"laps/internal/obs/telemetry"
	"laps/internal/packet"
	"laps/internal/sim"
)

// GroupConfig parameterises a Group — the parallel front door.
type GroupConfig struct {
	// Addr is the UDP address every socket binds ("host:port"; ":0"
	// picks a free port, shared by the whole group). Ignored when Conns
	// is set.
	Addr string
	// Conns is an already-bound socket group to read instead of Addr
	// (lapsd binds up front to print the address before traffic). With
	// more than one conn the binder must have set SO_REUSEPORT on each
	// — ListenGroup does — or the later binds would have failed. The
	// Group takes ownership: Stop closes them.
	Conns []net.PacketConn
	// Sockets is how many SO_REUSEPORT sockets to bind on Addr; <= 1
	// binds one plain socket. On non-Linux platforms the group falls
	// back to a single socket (Reuseport reports false). Ignored when
	// Conns is set.
	Sockets int

	// Batch, AdaptiveBatch, MaxBatch, Pool, ReadBuffer, Clock and
	// DrainGrace apply to every listener in the group; see Config.
	Batch         int
	AdaptiveBatch bool
	MaxBatch      int
	Pool          *packet.Pool
	ReadBuffer    int
	Clock         func() sim.Time
	DrainGrace    time.Duration

	// Sink / BurstSink / Flush are the engine hooks, shared by every
	// socket. The engines' dispatch entry points require a single
	// caller, so with more than one socket the Group serialises the
	// hooks behind one mutex: readers decode, prime and stage in
	// parallel, only the dispatch hand-off itself is serial. Exactly
	// one of Sink and BurstSink must be set.
	Sink      func(*packet.Packet)
	BurstSink func([]*packet.Packet)
	Flush     func()

	// FillHist, when non-nil, receives every socket's batch-fill
	// samples; it must have at least as many lanes as sockets (lane i =
	// socket i).
	FillHist *telemetry.Hist
}

// Group is N listeners on one UDP address, fanned out by the kernel's
// SO_REUSEPORT 4-tuple hash. Each socket gets its own reader
// goroutine, recvmmsg vector, and adaptive batch controller, so the
// receive side scales with cores; the shared engine hand-off is
// serialised (see GroupConfig.Sink), and per-flow FIFO survives
// because one 4-tuple always hashes to one socket — the ordering
// argument in docs/INGRESS.md.
type Group struct {
	listeners []*Listener
	reuse     bool
	mu        sync.Mutex // serialises the engine hooks across readers

	started, stopped bool
}

// NewGroup binds (or adopts) the socket group and builds one listener
// per socket; readers are not yet running. On any construction error
// every socket — bound here or passed in — is closed.
func NewGroup(cfg GroupConfig) (*Group, error) {
	conns := cfg.Conns
	reuse := len(conns) > 1
	if len(conns) == 0 {
		if cfg.Addr == "" {
			return nil, fmt.Errorf("ingress: GroupConfig needs an Addr to bind or already-bound Conns")
		}
		var err error
		conns, reuse, err = ListenGroup(cfg.Addr, cfg.Sockets)
		if err != nil {
			return nil, err
		}
	}
	g := &Group{listeners: make([]*Listener, 0, len(conns)), reuse: reuse}

	sink, burst, flush := cfg.Sink, cfg.BurstSink, cfg.Flush
	if len(conns) > 1 {
		// One datagram's hand-off holds the lock for the whole burst, so
		// the serial section amortises exactly like the burst path does.
		if sink != nil {
			inner := sink
			sink = func(p *packet.Packet) {
				g.mu.Lock()
				inner(p)
				g.mu.Unlock()
			}
		}
		if burst != nil {
			inner := burst
			burst = func(ps []*packet.Packet) {
				g.mu.Lock()
				inner(ps)
				g.mu.Unlock()
			}
		}
		if flush != nil {
			inner := flush
			flush = func() {
				g.mu.Lock()
				inner()
				g.mu.Unlock()
			}
		}
	}
	for i, conn := range conns {
		l, err := New(Config{
			Conn:          conn,
			Batch:         cfg.Batch,
			AdaptiveBatch: cfg.AdaptiveBatch,
			MaxBatch:      cfg.MaxBatch,
			Pool:          cfg.Pool,
			Sink:          sink,
			BurstSink:     burst,
			Flush:         flush,
			ReadBuffer:    cfg.ReadBuffer,
			Clock:         cfg.Clock,
			DrainGrace:    cfg.DrainGrace,
			FillHist:      cfg.FillHist,
			FillLane:      i,
			IDOffset:      uint64(i),
			IDStride:      uint64(len(conns)),
		})
		if err != nil {
			for _, c := range conns {
				c.Close() //nolint:errcheck // construction error unwind
			}
			return nil, err
		}
		g.listeners = append(g.listeners, l)
	}
	return g, nil
}

// LocalAddr is the group's bound address (all sockets share it).
func (g *Group) LocalAddr() net.Addr { return g.listeners[0].LocalAddr() }

// Listeners exposes the per-socket listeners for telemetry closures;
// the slice is the group's own — do not mutate.
func (g *Group) Listeners() []*Listener { return g.listeners }

// Start launches every reader goroutine.
func (g *Group) Start(ctx context.Context) {
	if g.started {
		panic("ingress: Group started twice")
	}
	g.started = true
	for _, l := range g.listeners {
		l.Start(ctx)
	}
}

// Stats aggregates the group's counters: sums across sockets, with
// VectorLen the largest socket's vector (the "how batched is the
// busiest socket" signal) and RcvBuf socket 0's (every socket issued
// the same request). Safe mid-run.
func (g *Group) Stats() Stats {
	var agg Stats
	for i, l := range g.listeners {
		st := l.Stats()
		agg.Datagrams += st.Datagrams
		agg.Packets += st.Packets
		agg.Malformed += st.Malformed
		agg.Batches += st.Batches
		agg.BatchGrows += st.BatchGrows
		agg.BatchShrinks += st.BatchShrinks
		if st.VectorLen > agg.VectorLen {
			agg.VectorLen = st.VectorLen
		}
		if i == 0 {
			agg.RcvBuf = st.RcvBuf
		}
	}
	return agg
}

// SocketStats returns each socket's own counters, index-aligned with
// Listeners. Safe mid-run.
func (g *Group) SocketStats() []Stats {
	out := make([]Stats, len(g.listeners))
	for i, l := range g.listeners {
		out[i] = l.Stats()
	}
	return out
}

// Datagrams, Packets and Malformed sum the counters across sockets for
// telemetry-registry closures.
func (g *Group) Datagrams() uint64 {
	var n uint64
	for _, l := range g.listeners {
		n += l.Datagrams()
	}
	return n
}

func (g *Group) Packets() uint64 {
	var n uint64
	for _, l := range g.listeners {
		n += l.Packets()
	}
	return n
}

func (g *Group) Malformed() uint64 {
	var n uint64
	for _, l := range g.listeners {
		n += l.Malformed()
	}
	return n
}

// Err reports the first reader's exit error, nil when every reader
// stopped cleanly. Valid after Stop.
func (g *Group) Err() error {
	for _, l := range g.listeners {
		if err := l.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Stop drains and ends every listener concurrently — each socket runs
// its own drain protocol (deadline poke, or the drain-by-watching
// fallback for unpokeable conns), so the group's stop time is bounded
// by the slowest socket's DrainGrace, not the sum, and one wedged
// reader cannot keep another socket's queued datagrams from draining.
// Returns the aggregated final counters.
func (g *Group) Stop() Stats {
	if !g.started || g.stopped {
		panic("ingress: Stop on a non-running group")
	}
	g.stopped = true
	var wg sync.WaitGroup
	for _, l := range g.listeners {
		wg.Add(1)
		go func(l *Listener) {
			defer wg.Done()
			l.Stop()
		}(l)
	}
	wg.Wait()
	return g.Stats()
}
