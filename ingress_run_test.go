package laps_test

import (
	"context"
	"net"
	"testing"
	"time"

	"laps"
	"laps/internal/crc"
	"laps/internal/ingress"
)

// TestRunIngressEndToEnd drives laps.Run through the UDP front door on
// loopback: 100k+ packets across 1k+ flows, sender-assigned per-flow
// sequence numbers, backpressure on, faults off. The acceptance bar is
// absolute — every packet sent is processed (0 loss) and no flow is
// ever retired out of order (0 OOO), both measured by the receiver from
// the wire sequence numbers, not the sender's say-so.
func TestRunIngressEndToEnd(t *testing.T) {
	const (
		flows   = 1024
		perFlow = 100
		total   = flows * perFlow
	)
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

	reg := laps.NewMetricsRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan *laps.RunResult, 1)
	fail := make(chan error, 1)
	go func() {
		res, err := laps.Run(laps.RunConfig{
			Workers: 4, // the wire can carry all 4 services, and LAPS wants a core per active service
			Block:   true,
			Recycle: true,
			Metrics: reg,
			Context: ctx,
			Ingress: &laps.IngressConfig{Conns: []net.PacketConn{conn}, ReadBuffer: 4 << 20},
		})
		if err != nil {
			fail <- err
			return
		}
		done <- res
	}()

	s := ingress.NewSender(w, 32)
	for i := 0; i < total; i++ {
		f := i % flows
		flow := laps.FlowKey{SrcIP: uint32(0x0a000000 + f), DstIP: 0x0a0000ff, SrcPort: uint16(f), DstPort: 4040, Proto: 17}
		if err := s.Send(flow, laps.ServiceID(f%4), 64); err != nil {
			t.Fatal(err)
		}
		if i%2048 == 0 {
			time.Sleep(time.Millisecond) // pace inside the kernel receive buffer
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Sent() != total || s.Flows() != flows {
		t.Fatalf("sender: sent=%d flows=%d, want %d/%d", s.Sent(), s.Flows(), total, flows)
	}

	// End the run only once the engine has retired everything sent: the
	// registry's processed counter is the receiver's own bookkeeping.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if n, ok := reg.Snapshot()["laps_processed_total"].(uint64); ok && n >= total {
			break
		}
		if time.Now().After(deadline) {
			n := reg.Snapshot()["laps_processed_total"]
			t.Fatalf("timed out waiting for %d packets to retire (processed=%v)", total, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()

	var res *laps.RunResult
	select {
	case res = <-done:
	case err := <-fail:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after context cancellation")
	}

	if res.Ingress == nil {
		t.Fatal("RunResult.Ingress is nil for an ingress-fed run")
	}
	if res.Generated != total || res.Ingress.Packets != total {
		t.Fatalf("decoded %d packets (Generated=%d), want %d — wire loss", res.Ingress.Packets, res.Generated, total)
	}
	if res.Ingress.Malformed != 0 {
		t.Fatalf("%d malformed datagrams on a clean stream", res.Ingress.Malformed)
	}
	if res.Live.Processed != total || res.Live.Dropped != 0 {
		t.Fatalf("processed=%d dropped=%d, want %d/0", res.Live.Processed, res.Live.Dropped, total)
	}
	if res.Live.OutOfOrder != 0 {
		t.Fatalf("%d packets departed out of order", res.Live.OutOfOrder)
	}
}

// TestRunIngressDuration covers the other way an ingress run ends: a
// wall-clock Duration instead of context cancellation.
func TestRunIngressDuration(t *testing.T) {
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

	done := make(chan struct{})
	var res *laps.RunResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = laps.Run(laps.RunConfig{
			StackConfig: laps.StackConfig{Duration: laps.Time(300 * time.Millisecond)},
			Workers:     4,
			Block:       true,
			Recycle:     true,
			Ingress:     &laps.IngressConfig{Conns: []net.PacketConn{conn}, ReadBuffer: 4 << 20},
		})
	}()
	s := ingress.NewSender(w, 16)
	for i := 0; i < 5000; i++ {
		if err := s.Send(laps.FlowKey{SrcIP: uint32(i % 50), DstPort: 9, Proto: 17}, laps.ServiceID(i%4), 64); err != nil {
			t.Fatal(err)
		}
		if i%512 == 0 {
			time.Sleep(time.Millisecond) // pace inside the kernel receive buffer
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("duration-bounded ingress run did not end")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Live.Processed != 5000 || res.Live.OutOfOrder != 0 {
		t.Fatalf("processed=%d ooo=%d, want 5000/0", res.Live.Processed, res.Live.OutOfOrder)
	}
}

// TestRunIngressMultiSocket is the parallel-ingress end-to-end bar: a
// pre-bound REUSEPORT group (the lapsd shape), multiple source sockets
// with flows pinned to a socket by the dispatcher hash (the lapsgen
// -conns shape), and the same absolute acceptance as the single-socket
// run — every packet processed, zero malformed, zero out-of-order.
func TestRunIngressMultiSocket(t *testing.T) {
	const (
		sockets = 4
		writers = 8
		flows   = 512
		perFlow = 100
		total   = flows * perFlow
	)
	conns, reuse, err := laps.ListenUDP("127.0.0.1:0", sockets)
	if err != nil {
		t.Fatal(err)
	}
	if !reuse {
		for _, c := range conns {
			c.Close()
		}
		t.Skip("SO_REUSEPORT unavailable on this platform")
	}
	addr := conns[0].LocalAddr().(*net.UDPAddr)

	reg := laps.NewMetricsRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan *laps.RunResult, 1)
	fail := make(chan error, 1)
	go func() {
		res, err := laps.Run(laps.RunConfig{
			Workers: 4,
			Block:   true,
			Recycle: true,
			Metrics: reg,
			Context: ctx,
			Ingress: &laps.IngressConfig{
				Conns:         conns,
				AdaptiveBatch: true,
				ReadBuffer:    4 << 20,
			},
		})
		if err != nil {
			fail <- err
			return
		}
		done <- res
	}()

	senders := make([]*ingress.Sender, writers)
	for i := range senders {
		w, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		senders[i] = ingress.NewSender(w, 32)
	}
	for i := 0; i < total; i++ {
		f := i % flows
		flow := laps.FlowKey{SrcIP: uint32(0x0a000000 + f), DstIP: 0x0a0000fe, SrcPort: uint16(f), DstPort: 4041, Proto: 17}
		s := senders[int(crc.FlowHash(flow))%writers]
		if err := s.Send(flow, laps.ServiceID(f%4), 64); err != nil {
			t.Fatal(err)
		}
		if i%2048 == 0 {
			time.Sleep(time.Millisecond) // pace inside the kernel receive buffers
		}
	}
	for _, s := range senders {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		if n, ok := reg.Snapshot()["laps_processed_total"].(uint64); ok && n >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d packets to retire (processed=%v)",
				total, reg.Snapshot()["laps_processed_total"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()

	var res *laps.RunResult
	select {
	case res = <-done:
	case err := <-fail:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after context cancellation")
	}

	if res.Ingress.Packets != total || res.Ingress.Malformed != 0 {
		t.Fatalf("ingress decoded %d packets (%d malformed), want %d/0",
			res.Ingress.Packets, res.Ingress.Malformed, total)
	}
	if res.Live.Processed != total || res.Live.Dropped != 0 || res.Live.OutOfOrder != 0 {
		t.Fatalf("processed=%d dropped=%d ooo=%d, want %d/0/0",
			res.Live.Processed, res.Live.Dropped, res.Live.OutOfOrder, total)
	}
	if len(res.IngressSockets) != sockets {
		t.Fatalf("IngressSockets has %d entries, want %d", len(res.IngressSockets), sockets)
	}
	var sum uint64
	busy := 0
	for _, s := range res.IngressSockets {
		sum += s.Packets
		if s.Datagrams > 0 {
			busy++
		}
	}
	if sum != total {
		t.Fatalf("per-socket packets sum to %d, want %d", sum, total)
	}
	if busy < 2 {
		t.Fatalf("only %d of %d sockets saw traffic; REUSEPORT fan-out not happening", busy, sockets)
	}
}
