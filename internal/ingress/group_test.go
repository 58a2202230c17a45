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
)

// reuseGroup binds n REUSEPORT sockets for a test, skipping on
// platforms where the fallback leaves only one socket (there is no
// fan-out to exercise there).
func reuseGroup(t *testing.T, n int) []net.PacketConn {
	t.Helper()
	conns, reuse, err := ListenGroup("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	if !reuse {
		for _, c := range conns {
			c.Close()
		}
		t.Skip("SO_REUSEPORT unavailable on this platform; nothing to fan out")
	}
	return conns
}

// dialSenders connects k independent writers to addr — k distinct
// 4-tuples for the kernel's REUSEPORT hash to spread.
func dialSenders(t *testing.T, addr *net.UDPAddr, k, perDatagram int) []*Sender {
	t.Helper()
	senders := make([]*Sender, k)
	for i := range senders {
		w, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		senders[i] = NewSender(w, perDatagram)
	}
	return senders
}

// TestGroupFlowNeverCrossesSockets is the parallel front door's core
// regression: with flows pinned to source sockets (lapsgen's -conns
// contract) and the kernel pinning each 4-tuple to one REUSEPORT
// socket, no flow may ever be seen by two listeners, and every flow's
// sequence numbers must still emerge in order through the serialized
// sink. The socket a packet arrived on is recovered from its ID — a
// Group stamps listener i's packets with ID ≡ i (mod sockets).
func TestGroupFlowNeverCrossesSockets(t *testing.T) {
	const sockets, writers, flows, perFlow = 4, 16, 64, 100
	conns := reuseGroup(t, sockets)

	var (
		got  atomic.Uint64
		pkts []*packet.Packet
	)
	g, err := NewGroup(GroupConfig{
		Conns: conns,
		Sink: func(p *packet.Packet) {
			pkts = append(pkts, p)
			got.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.listeners) != sockets || !g.reuse {
		t.Fatalf("group has %d sockets (reuseport=%v), want %d (true)", len(g.listeners), g.reuse, sockets)
	}
	g.Start(context.Background())

	senders := dialSenders(t, g.LocalAddr().(*net.UDPAddr), writers, 32)
	flowKey := func(f int) packet.FlowKey {
		return packet.FlowKey{SrcIP: uint32(f), DstIP: 0xfeed, SrcPort: 443, DstPort: uint16(f), Proto: packet.ProtoUDP}
	}
	for i := 0; i < flows*perFlow; i++ {
		fl := flowKey(i % flows)
		s := senders[int(crc.FlowHash(fl))%writers] // flow→socket pinning, as lapsgen does
		if err := s.Send(fl, packet.SvcIPForward, 64); err != nil {
			t.Fatal(err)
		}
		if i%1024 == 0 {
			time.Sleep(time.Millisecond) // stay inside the default SO_RCVBUF
		}
	}
	for _, s := range senders {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, &got, flows*perFlow)
	st := g.Stop()
	if err := g.Err(); err != nil {
		t.Fatalf("clean stop reported error: %v", err)
	}
	if st.Packets != flows*perFlow || st.Malformed != 0 {
		t.Fatalf("stats = %+v, want %d packets, 0 malformed", st, flows*perFlow)
	}

	sockOf := map[packet.FlowKey]uint64{}
	next := map[packet.FlowKey]uint64{}
	seen := map[uint64]bool{}
	for _, p := range pkts {
		s := p.ID % sockets
		seen[s] = true
		if prev, ok := sockOf[p.Flow]; ok && prev != s {
			t.Fatalf("flow %v arrived on sockets %d and %d — a flow crossed REUSEPORT sockets", p.Flow, prev, s)
		}
		sockOf[p.Flow] = s
		if p.FlowSeq != next[p.Flow] {
			t.Fatalf("flow %v: got seq %d, want %d — parallel ingress reordered a flow", p.Flow, p.FlowSeq, next[p.Flow])
		}
		next[p.Flow]++
	}
	// 16 distinct 4-tuples landing on one of 4 sockets has probability
	// ~4^-15 — if this fires, the kernel is not fanning out at all.
	if len(seen) < 2 {
		t.Fatalf("all %d writers hashed to one socket; REUSEPORT fan-out not happening", writers)
	}
}

// TestGroupStopDrainsWedgedReader pins the group drain contract: with
// one reader wedged mid-batch inside the sink (holding the group's
// dispatch mutex, so every other reader is stuck behind it), Stop must
// still deliver every datagram queued in every socket's kernel buffer
// once the wedge clears — through the deadline-poke protocol, and
// through the drain-by-watching fallback for unpokeable conns.
func TestGroupStopDrainsWedgedReader(t *testing.T) {
	t.Run("poked", func(t *testing.T) { testGroupStopWedged(t, false) })
	t.Run("watched", func(t *testing.T) { testGroupStopWedged(t, true) })
}

func testGroupStopWedged(t *testing.T, hideDeadline bool) {
	const sockets, writers, total = 2, 8, 4000
	conns := reuseGroup(t, sockets)
	if hideDeadline {
		for i := range conns {
			conns[i] = &noDeadlineConn{PacketConn: conns[i]}
		}
	}

	wedge := make(chan struct{})
	var (
		wedged atomic.Bool
		got    atomic.Uint64
	)
	g, err := NewGroup(GroupConfig{
		Conns: conns,
		Sink: func(p *packet.Packet) {
			if wedged.CompareAndSwap(false, true) {
				<-wedge // wedged mid-batch, group dispatch mutex held
			}
			got.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(context.Background())

	senders := dialSenders(t, g.LocalAddr().(*net.UDPAddr), writers, 50)
	for i := 0; i < total; i++ {
		if err := senders[i%writers].Send(packet.FlowKey{SrcIP: uint32(i % 32)}, packet.SvcVPNOut, 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range senders {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for !wedged.Load() {
		if time.Now().After(deadline) {
			t.Fatal("no packet ever reached the sink")
		}
		runtime.Gosched()
	}
	stopped := make(chan Stats, 1)
	go func() { stopped <- g.Stop() }()
	// Let Stop engage the drain protocol against the wedged group
	// before releasing it.
	time.Sleep(50 * time.Millisecond)
	close(wedge)
	st := <-stopped
	if st.Packets != total {
		t.Fatalf("drain delivered %d of %d packets", st.Packets, total)
	}
	if err := g.Err(); err != nil {
		t.Fatalf("drain stop reported error: %v", err)
	}
}

// TestRcvBufReadBack pins the SO_RCVBUF verification loop: after a
// ReadBuffer request the listener asks the kernel what it actually
// granted (Linux doubles the request and clamps to rmem_max), and a
// conn with no raw descriptor honestly reports 0 rather than echoing
// the request back.
func TestRcvBufReadBack(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("rcvbuf readback asserts Linux grant semantics")
	}
	conn, _ := loopback(t)
	defer conn.Close()
	const req = 64 << 10
	l, err := New(Config{Conn: conn, ReadBuffer: req, Sink: func(*packet.Packet) {}})
	if err != nil {
		t.Fatal(err)
	}
	if rb := l.Stats().RcvBuf; rb < req {
		t.Fatalf("effective SO_RCVBUF %d below the %d request (the kernel doubles grants)", rb, req)
	}

	wrapped, _ := loopback(t)
	defer wrapped.Close()
	l2, err := New(Config{Conn: struct{ net.PacketConn }{wrapped}, Sink: func(*packet.Packet) {}})
	if err != nil {
		t.Fatal(err)
	}
	if rb := l2.Stats().RcvBuf; rb != 0 {
		t.Fatalf("descriptor-less conn reported RcvBuf=%d, want 0 (unknown)", rb)
	}
}

// TestGroupConfigValidation pins NewGroup's construction errors: some
// socket source is required, and a listener-level misconfiguration
// closes every socket the group had already adopted.
func TestGroupConfigValidation(t *testing.T) {
	if _, err := NewGroup(GroupConfig{Sink: func(*packet.Packet) {}}); err == nil {
		t.Fatal("NewGroup accepted a config with neither Addr nor Conns")
	}
	conns, _, err := ListenGroup("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	// No sink at all: the per-listener validation must reject it and
	// close the adopted conn on the way out.
	if _, err := NewGroup(GroupConfig{Conns: conns}); err == nil {
		t.Fatal("NewGroup accepted a config with no sink")
	}
	if err := conns[0].Close(); err == nil {
		t.Fatal("construction error left the adopted socket open")
	}
}
