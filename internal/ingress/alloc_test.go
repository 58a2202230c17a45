//go:build !race

// Zero-allocation regression guard for the receive path, excluded under
// the race detector for the same reason as the engine's: race
// instrumentation allocates on its own.

package ingress

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"laps/internal/packet"
)

// TestIngressZeroAllocSteadyState pins the tentpole contract at the
// socket: once the receive vectors are built and the pool is warm, one
// datagram's full ingress cycle — kernel receive, wire decode, pool Get,
// hash prime, sink hand-off, pool Put — allocates nothing. The guard
// measures whole-process mallocs across AllocsPerRun cycles, so the
// reader goroutine's work is inside the measurement.
func TestIngressZeroAllocSteadyState(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	defer w.Close()

	pool := packet.NewPool()
	var got atomic.Uint64
	sink := func(p *packet.Packet) {
		got.Add(1)
		pool.Put(p)
	}
	l, err := New(Config{Conn: conn, Pool: pool, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	l.Start(context.Background())

	const perDatagram = 32
	recs := make([]Record, perDatagram)
	for i := range recs {
		recs[i] = Record{
			Flow:    packet.FlowKey{SrcIP: uint32(i), DstIP: 0xcafe, SrcPort: 80, DstPort: uint16(i), Proto: packet.ProtoUDP},
			Service: packet.ServiceID(i % packet.NumServices),
			Size:    64,
			Seq:     uint64(i),
		}
	}
	dg := EncodeDatagram(nil, recs)

	var want uint64
	cycle := func() {
		if _, err := w.Write(dg); err != nil {
			t.Fatal(err)
		}
		want += perDatagram
		// AllocsPerRun pins GOMAXPROCS to 1; sleeping (not spinning) lets
		// the lone P block in the netpoller and wake the reader promptly.
		for got.Load() < want {
			time.Sleep(10 * time.Microsecond)
		}
	}
	for i := 0; i < 200; i++ {
		cycle() // warm: receive vectors touched, pool populated
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("ingress steady state allocates %.3f per datagram, want 0", avg)
	}
	st := l.Stop()
	if st.Malformed != 0 {
		t.Fatalf("%d datagrams misdecoded during the alloc run", st.Malformed)
	}
}

// TestGroupZeroAllocSteadyState extends the zero-alloc contract to the
// parallel front door: a multi-socket Group — adaptive batching on,
// dispatch hand-off serialized behind the group mutex — still moves a
// datagram through receive, decode, prime, burst hand-off and pool
// recycle without allocating. Locking an uncontended sync.Mutex and
// resizing the receive vector must both stay off the heap.
func TestGroupZeroAllocSteadyState(t *testing.T) {
	conns, reuse, err := ListenGroup("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reuse {
		for _, c := range conns {
			c.Close()
		}
		t.Skip("SO_REUSEPORT unavailable; the single-listener guard already covers this platform")
	}
	pool := packet.NewPool()
	var got atomic.Uint64
	g, err := NewGroup(GroupConfig{
		Conns:         conns,
		AdaptiveBatch: true,
		Pool:          pool,
		BurstSink: func(ps []*packet.Packet) {
			got.Add(uint64(len(ps)))
			for _, p := range ps {
				pool.Put(p)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(context.Background())

	w, err := net.DialUDP("udp", nil, g.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const perDatagram = 32
	recs := make([]Record, perDatagram)
	for i := range recs {
		recs[i] = Record{
			Flow:    packet.FlowKey{SrcIP: uint32(i), DstIP: 0xcafe, SrcPort: 80, DstPort: uint16(i), Proto: packet.ProtoUDP},
			Service: packet.ServiceID(i % packet.NumServices),
			Size:    64,
			Seq:     uint64(i),
		}
	}
	dg := EncodeDatagram(nil, recs)

	var want uint64
	cycle := func() {
		if _, err := w.Write(dg); err != nil {
			t.Fatal(err)
		}
		want += perDatagram
		for got.Load() < want {
			time.Sleep(10 * time.Microsecond)
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("group steady state allocates %.3f per datagram, want 0", avg)
	}
	st := g.Stop()
	if st.Malformed != 0 {
		t.Fatalf("%d datagrams misdecoded during the alloc run", st.Malformed)
	}
}

// TestPortableReceiverAllocs pins the widened no-alloc receive path:
// any conn providing ReadFromUDPAddrPort — not just *net.UDPConn —
// receives without a per-datagram allocation.
func TestPortableReceiverAllocs(t *testing.T) {
	fake := &fakeAddrPortConn{payload: []byte{1, 2, 3, 4}}
	r := newPortableReceiver(fake, MaxDatagram)
	if avg := testing.AllocsPerRun(5000, func() {
		if _, err := r.recv(nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("addr-port receive path allocates %.3f per datagram, want 0", avg)
	}
}

// TestIngressBurstSinkZeroAlloc extends the steady-state guard to the
// burst handoff: staging a datagram's packets and handing them to
// BurstSink as one slice adds no allocation over the per-packet sink.
func TestIngressBurstSinkZeroAlloc(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	defer w.Close()

	pool := packet.NewPool()
	var got atomic.Uint64
	l, err := New(Config{Conn: conn, Pool: pool, BurstSink: func(ps []*packet.Packet) {
		got.Add(uint64(len(ps)))
		for _, p := range ps {
			pool.Put(p)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	l.Start(context.Background())

	const perDatagram = 32
	recs := make([]Record, perDatagram)
	for i := range recs {
		recs[i] = Record{
			Flow:    packet.FlowKey{SrcIP: uint32(i), DstIP: 0xcafe, SrcPort: 80, DstPort: uint16(i), Proto: packet.ProtoUDP},
			Service: packet.ServiceID(i % packet.NumServices),
			Size:    64,
			Seq:     uint64(i),
		}
	}
	dg := EncodeDatagram(nil, recs)

	var want uint64
	cycle := func() {
		if _, err := w.Write(dg); err != nil {
			t.Fatal(err)
		}
		want += perDatagram
		for got.Load() < want {
			time.Sleep(10 * time.Microsecond)
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("burst-sink steady state allocates %.3f per datagram, want 0", avg)
	}
	st := l.Stop()
	if st.Malformed != 0 {
		t.Fatalf("%d datagrams misdecoded during the alloc run", st.Malformed)
	}
}
