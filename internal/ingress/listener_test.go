package ingress

import (
	"context"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"laps/internal/crc"
	"laps/internal/packet"
	"laps/internal/sim"
)

// loopback binds a UDP socket on 127.0.0.1 and dials it, returning the
// listen side and a connected writer whose every Write is one datagram.
func loopback(t *testing.T) (net.PacketConn, *net.UDPConn) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return conn, w
}

// waitFor polls an atomic counter up to a deadline; the sink runs on the
// listener's reader goroutine, so tests synchronize through counters and
// read collected state only after Stop.
func waitFor(t *testing.T, got *atomic.Uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: delivered %d of %d packets", got.Load(), want)
		}
		runtime.Gosched()
	}
}

// TestListenerDeliversInOrder is the front door's core contract on
// loopback: every packet sent arrives, per-flow sequence numbers emerge
// in send order (ingress itself never reorders a flow), and every
// packet carries the CRC16 hash primed at the socket — the hash-once
// invariant's fourth ingress point, alongside the generator, recovery
// and shard paths pinned in internal/runtime.
func TestListenerDeliversInOrder(t *testing.T) {
	conn, w := loopback(t)
	const flows, perFlow = 97, 200

	var (
		got        atomic.Uint64
		pkts       []*packet.Packet
		hashFaults int
	)
	l, err := New(Config{
		Conn: conn,
		Sink: func(p *packet.Packet) {
			if !p.HashOK || p.Hash != crc.FlowHash(p.Flow) {
				hashFaults++
			}
			pkts = append(pkts, p)
			got.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Start(context.Background())

	s := NewSender(w, 32)
	for i := 0; i < flows*perFlow; i++ {
		f := i % flows
		flow := packet.FlowKey{SrcIP: uint32(f), DstIP: 0xbeef, SrcPort: 7, DstPort: uint16(f), Proto: packet.ProtoUDP}
		if err := s.Send(flow, packet.ServiceID(f%packet.NumServices), 64+f); err != nil {
			t.Fatal(err)
		}
		if i%1024 == 0 {
			time.Sleep(time.Millisecond) // stay inside the default SO_RCVBUF
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Flows() != flows {
		t.Fatalf("sender sequenced %d flows, want %d", s.Flows(), flows)
	}
	waitFor(t, &got, flows*perFlow)
	st := l.Stop()

	if st.Packets != flows*perFlow || st.Malformed != 0 {
		t.Fatalf("stats = %+v, want %d packets, 0 malformed", st, flows*perFlow)
	}
	if hashFaults != 0 {
		t.Fatalf("%d packets arrived without the socket-primed hash", hashFaults)
	}
	next := map[packet.FlowKey]uint64{}
	var lastID uint64
	for _, p := range pkts {
		if p.ID <= lastID {
			t.Fatalf("packet IDs not strictly increasing: %d after %d", p.ID, lastID)
		}
		lastID = p.ID
		if p.FlowSeq != next[p.Flow] {
			t.Fatalf("flow %v: got seq %d, want %d — ingress reordered a flow", p.Flow, p.FlowSeq, next[p.Flow])
		}
		next[p.Flow]++
	}
}

// TestListenerCountsMalformed pins that garbage on the wire is counted
// and dropped without disturbing the packets around it.
func TestListenerCountsMalformed(t *testing.T) {
	conn, w := loopback(t)
	var got atomic.Uint64
	l, err := New(Config{Conn: conn, Sink: func(p *packet.Packet) { got.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	l.Start(context.Background())

	s := NewSender(w, 4)
	send := func() {
		if err := s.Send(packet.FlowKey{SrcIP: 9}, packet.SvcVPNIn, 64); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if _, err := w.Write([]byte("not a laps datagram")); err != nil {
		t.Fatal(err)
	}
	send()
	waitFor(t, &got, 2)
	st := l.Stop()
	if st.Packets != 2 || st.Malformed != 1 || st.Datagrams != 3 {
		t.Fatalf("stats = %+v, want 2 packets, 1 malformed, 3 datagrams", st)
	}
	if l.Err() != nil {
		t.Fatalf("clean stop reported error: %v", l.Err())
	}
}

// TestDatagramIsOneArrival pins what the listener does per datagram and
// not per record, in both sink modes: one clock reading, shared by all
// of the datagram's packets as their Arrival, and one addition to the
// packet counter — which still counts the records delivered ahead of a
// bad one.
func TestDatagramIsOneArrival(t *testing.T) {
	recs := func(srcs ...uint32) []Record {
		out := make([]Record, len(srcs))
		for i, s := range srcs {
			out[i] = Record{Flow: packet.FlowKey{SrcIP: s}, Service: packet.SvcIPForward, Size: 64}
		}
		return out
	}
	badThird := EncodeDatagram(nil, recs(4, 5, 6))
	badThird[HeaderLen+2*RecordLen+13] = 0xff // third record's service byte
	wire := [][]byte{
		EncodeDatagram(nil, recs(1, 2, 3)),
		badThird,
		[]byte("not a laps datagram"),
		EncodeDatagram(nil, recs(7)),
	}
	const delivered = 3 + 2 + 1

	for _, mode := range []string{"Sink", "BurstSink"} {
		t.Run(mode, func(t *testing.T) {
			conn, w := loopback(t)
			var (
				got    atomic.Uint64
				pkts   []*packet.Packet
				clocks int
			)
			cfg := Config{Conn: conn, Clock: func() sim.Time { clocks++; return sim.Time(clocks) }}
			if mode == "Sink" {
				cfg.Sink = func(p *packet.Packet) { pkts = append(pkts, p); got.Add(1) }
			} else {
				cfg.BurstSink = func(ps []*packet.Packet) { pkts = append(pkts, ps...); got.Add(uint64(len(ps))) }
			}
			l, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			l.Start(context.Background())
			for _, b := range wire {
				if _, err := w.Write(b); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, &got, delivered)
			st := l.Stop()
			if st.Datagrams != 4 || st.Packets != delivered || st.Malformed != 2 {
				t.Fatalf("stats = %+v, want 4 datagrams, %d packets, 2 malformed", st, delivered)
			}
			if clocks != 4 {
				t.Fatalf("clock read %d times for 4 datagrams", clocks)
			}
			// SrcIP 1..3 came in datagram 1, 4..5 in datagram 2, 7 in 4.
			for _, p := range pkts {
				want := sim.Time(1)
				switch {
				case p.Flow.SrcIP == 7:
					want = 4
				case p.Flow.SrcIP >= 4:
					want = 2
				}
				if p.Arrival != want {
					t.Fatalf("packet from flow %d stamped %d, want its datagram's %d", p.Flow.SrcIP, p.Arrival, want)
				}
			}
		})
	}
}

// TestStopDrainsKernelBuffer sends a burst and stops the listener
// immediately: the drain protocol must read out everything the kernel
// had already accepted before the socket closes.
func TestStopDrainsKernelBuffer(t *testing.T) {
	conn, w := loopback(t)
	var got atomic.Uint64
	l, err := New(Config{Conn: conn, Sink: func(p *packet.Packet) { got.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	l.Start(context.Background())

	const n = 2000
	s := NewSender(w, 50)
	for i := 0; i < n; i++ {
		if err := s.Send(packet.FlowKey{SrcIP: uint32(i % 8)}, packet.SvcVPNOut, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// No wait: most of the burst is still in the kernel buffer.
	st := l.Stop()
	if st.Packets != n {
		t.Fatalf("drain delivered %d of %d packets", st.Packets, n)
	}
	if l.Err() != nil {
		t.Fatalf("drain stop reported error: %v", l.Err())
	}
}
