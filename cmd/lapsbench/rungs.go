package main

import (
	"context"
	"net"
	stdrt "runtime"
	"syscall"
	"time"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/ingress"
	"laps/internal/npsim"
	"laps/internal/packet"
	rt "laps/internal/runtime"
	"laps/internal/sim"
	"laps/internal/sketch"
	"laps/internal/traffic"
)

// rungCap bounds the records a rung replays, so the whole ladder costs
// about a second whatever the workload's size.
const rungCap = 1 << 18

// stubView is the static system state core.target_ns_per_pkt schedules
// against: empty queues, nothing idle, a clock that stands still.
type stubView struct{}

func (stubView) Now() sim.Time        { return 0 }
func (stubView) NumCores() int        { return liveWorkers }
func (stubView) QueueLen(int) int     { return 0 }
func (stubView) QueueCap() int        { return ringCap }
func (stubView) IdleFor(int) sim.Time { return 0 }

// bestOf runs pass three times and returns the fastest as ns per op. A
// pass builds its own state before it starts its clock.
func bestOf(ops int, pass func() time.Duration) float64 {
	best := pass()
	for i := 0; i < 2; i++ {
		if d := pass(); d < best {
			best = d
		}
	}
	return perPkt(best, ops)
}

var sink int // keeps rung results live

// runRungs times each layer's exported functions alone, single-threaded,
// on the workload's own records.
func runRungs(in *inputs, next func(seed uint64) func()) values {
	recs := in.recs
	if len(recs) > rungCap {
		recs = recs[:rungCap]
	}
	n := len(recs)
	pkts := make([]*packet.Packet, n)
	for i := range recs {
		pkts[i] = new(packet.Packet)
		recs[i].fill(pkts[i], uint64(i+1), 0, 0)
	}
	v := values{}

	pool := packet.NewPool()
	v["feeder.ns_per_pkt"] = bestOf(n, func() time.Duration {
		buf := make([]*packet.Packet, burstLen)
		t0 := time.Now()
		for off := 0; off < n; off += burstLen {
			for i := range buf {
				p := pool.Get()
				recs[off+i].fill(p, uint64(off+i), 0, 0)
				buf[i] = p
			}
			for _, p := range buf {
				pool.Put(p)
			}
		}
		return time.Since(t0)
	})

	// ingress: wire encode and decode, then the receive path end to end.
	wire := make([]ingress.Record, n)
	for i, r := range recs {
		wire[i] = ingress.Record{Flow: r.flow, Service: packet.ServiceID(r.svc), Size: int(r.size), Seq: uint64(r.seq)}
	}
	// One backing array for every datagram, so the rung prices the
	// encoder and not the allocator.
	const dgramLen = ingress.HeaderLen + burstLen*ingress.RecordLen
	backing := make([]byte, n/burstLen*dgramLen)
	dgrams := make([][]byte, 0, n/burstLen)
	v["ingress.encode_ns_per_pkt"] = bestOf(n, func() time.Duration {
		dgrams = dgrams[:0]
		t0 := time.Now()
		for off, at := 0, 0; off < n; off, at = off+burstLen, at+dgramLen {
			dgrams = append(dgrams, ingress.EncodeDatagram(backing[at:at:at+dgramLen], wire[off:off+burstLen]))
		}
		return time.Since(t0)
	})
	v["ingress.decode_ns_per_pkt"] = bestOf(n, func() time.Duration {
		emit := func(r ingress.Record) { sink += r.Size }
		t0 := time.Now()
		for _, d := range dgrams {
			ingress.DecodeDatagram(d, emit) //nolint:errcheck // encoded above
		}
		return time.Since(t0)
	})
	v["ingress.recv_ns_per_pkt"] = recvRung(dgrams)

	v["crc.prime_ns_per_pkt"] = bestOf(n, func() time.Duration {
		t0 := time.Now()
		for _, p := range pkts {
			p.HashOK = false
			crc.Prime(p)
		}
		return time.Since(t0)
	})

	v["runtime.ring_ns_per_pkt"] = bestOf(n, func() time.Duration {
		ring := rt.NewRing(ringCap)
		out := make([]*packet.Packet, burstLen)
		t0 := time.Now()
		for off := 0; off < n; off += burstLen {
			ring.PushBatch(pkts[off : off+burstLen])
			sink += ring.PopBatch(out)
		}
		return time.Since(t0)
	})

	newLAPS := func() *core.LAPS {
		return core.New(core.Config{TotalCores: liveWorkers, Services: packet.NumServices, AFD: afd.Config{Seed: in.seed}})
	}
	v["core.target_ns_per_pkt"] = bestOf(n, func() time.Duration {
		l := newLAPS()
		t0 := time.Now()
		for _, p := range pkts {
			sink += l.Target(p, stubView{})
		}
		return time.Since(t0)
	})
	v["core.forward_ns_per_pkt"] = bestOf(n, func() time.Duration {
		fwd := newLAPS().Snapshot(0)
		t0 := time.Now()
		for _, p := range pkts {
			sink += fwd.Forward(p)
		}
		return time.Since(t0)
	})
	const snapshots = 256
	v["core.snapshot_us"] = bestOf(snapshots, func() time.Duration {
		l := newLAPS()
		t0 := time.Now()
		for i := 0; i < snapshots; i++ {
			sink += l.Snapshot(sim.Time(i)).Forward(pkts[0])
		}
		return time.Since(t0)
	}) / 1e3

	v["afd.observe_ns_per_pkt"] = bestOf(n, func() time.Duration {
		d := afd.New(afd.Config{Seed: in.seed})
		t0 := time.Now()
		for i := range recs {
			d.ObserveH(recs[i].flow, recs[i].hash)
		}
		return time.Since(t0)
	})
	v["afd.observe_batch_ns_per_pkt"] = bestOf(n, func() time.Duration {
		d := afd.New(afd.Config{Seed: in.seed})
		t0 := time.Now()
		// One batched observation per within-burst flow run, as the
		// burst dispatch path groups them.
		for off := 0; off < n; off += burstLen {
			for i := off; i < off+burstLen; {
				j := i + 1
				for j < off+burstLen && recs[j].flow == recs[i].flow {
					j++
				}
				d.ObserveBatchH(recs[i].flow, recs[i].hash, j-i)
				i = j
			}
		}
		return time.Since(t0)
	})

	var flows int
	v["flowtab.ref_insert_ns_per_op"] = bestOf(n, func() time.Duration {
		tab := flowtab.New[uint64](1 << 12)
		t0 := time.Now()
		for i := range recs {
			*tab.Ref(recs[i].flow, recs[i].hash)++
		}
		d := time.Since(t0)
		flows = tab.Len()
		return d
	})
	v["flowtab.len"] = float64(flows)
	tab := flowtab.New[uint64](flows)
	for i := range recs {
		tab.Ref(recs[i].flow, recs[i].hash)
	}
	v["flowtab.ref_hit_ns_per_op"] = bestOf(n, func() time.Duration {
		t0 := time.Now()
		for i := range recs {
			*tab.Ref(recs[i].flow, recs[i].hash)++
		}
		return time.Since(t0)
	})

	v["npsim.record_ns_per_pkt"] = bestOf(n, func() time.Duration {
		tk := npsim.NewTracker(npsim.TrackerConfig{})
		t0 := time.Now()
		for i, p := range pkts {
			tk.RecordAt(p, sim.Time(i))
		}
		return time.Since(t0)
	})
	var sketchBytes int
	v["sketch.record_ns_per_pkt"] = bestOf(n, func() time.Duration {
		// The tracker's own sketch geometry under FlowBudget churnCap:
		// width = budget rounded up to a power of two, depth 4.
		sk := sketch.NewReorderSketch(churnCap, 4)
		sketchBytes = sk.Bytes()
		t0 := time.Now()
		for i := range recs {
			sk.Record(recs[i].flow, uint64(recs[i].seq), int64(i))
		}
		return time.Since(t0)
	})
	v["sketch.bytes"] = float64(sketchBytes)

	v["trace.next_ns_per_pkt"] = bestOf(n, func() time.Duration {
		draw := next(in.seed)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			draw()
		}
		return time.Since(t0)
	})
	return v
}

// caidaNext and churnNext draw from the workloads' trace sources.
func caidaNext(seed uint64) func() {
	srcs := caidaSources(seed)
	i := 0
	return func() {
		r, _ := srcs[i/8%packet.NumServices].Next()
		sink += r.Size
		i++
	}
}

func churnNext(seed uint64) func() {
	src := traffic.MillionFlowChurn(int(seed))
	return func() {
		r, _, _ := src.NextSeq()
		sink += r.Size
	}
}

// recvRung prices the receive path alone: one ingress.Listener on the
// loopback interface with a sink that only recycles, fed pre-encoded
// datagrams under the same credit window as udp_loopback. The reading
// is process CPU minus the sending thread's CPU, per packet — socket
// read, decode, prime and pool traffic, with no engine behind them.
func recvRung(dgrams [][]byte) float64 {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	pool := packet.NewPool()
	l, err := ingress.New(ingress.Config{
		Conn: conn, AdaptiveBatch: true, Pool: pool,
		BurstSink: func(ps []*packet.Packet) {
			for _, p := range ps {
				pool.Put(p)
			}
		},
	})
	if err != nil {
		conn.Close() //nolint:errcheck // already failing
		return 0
	}
	c, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		l.Stop()
		return 0
	}
	defer c.Close() //nolint:errcheck // teardown
	l.Start(context.Background())
	stdrt.LockOSThread()
	defer stdrt.UnlockOSThread()
	cpu0, thr0 := cpuTime(syscall.RUSAGE_SELF), cpuTime(rusageThread)
	var sent uint64
	for _, d := range dgrams {
		if _, err := c.Write(d); err != nil {
			break
		}
		for sent += burstLen; sent-l.Packets() > udpWindow; {
			stdrt.Gosched()
		}
	}
	for deadline := time.Now().Add(udpDrain); l.Packets() < sent && time.Now().Before(deadline); {
		stdrt.Gosched()
	}
	cpu := (cpuTime(syscall.RUSAGE_SELF) - cpu0) - (cpuTime(rusageThread) - thr0)
	got := l.Stop().Packets
	return perPkt(cpu, int(got))
}
