package ingress

import (
	"context"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"laps/internal/packet"
)

func benchRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Flow:    packet.FlowKey{SrcIP: uint32(i * 2654435761), DstIP: 0x0a000001, SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP},
			Service: packet.ServiceID(i % packet.NumServices),
			Size:    64,
			Seq:     uint64(i),
		}
	}
	return recs
}

// BenchmarkIngressDecode measures the wire decoder alone on a full
// 32-record datagram — the per-packet cost of header validation plus
// field extraction, no socket involved.
func BenchmarkIngressDecode(b *testing.B) {
	const perDatagram = 32
	dg := EncodeDatagram(nil, benchRecords(perDatagram))
	var n uint64
	emit := func(r Record) { n += uint64(r.Size) }
	b.SetBytes(int64(len(dg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDatagram(dg, emit); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*perDatagram)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkIngressLoopback measures the whole receive path over a real
// loopback socket: sender writes, kernel queues, batched receive, wire
// decode, pooled packet fill, hash prime, sink. The sender throttles
// against the delivered count so the kernel buffer never overflows —
// the benchmark measures the path, not loopback loss.
func BenchmarkIngressLoopback(b *testing.B) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	w, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		conn.Close()
		b.Fatal(err)
	}
	defer w.Close()

	pool := packet.NewPool()
	var got atomic.Uint64
	l, err := New(Config{
		Conn: conn,
		Pool: pool,
		Sink: func(p *packet.Packet) { got.Add(1); pool.Put(p) },
	})
	if err != nil {
		b.Fatal(err)
	}
	l.Start(context.Background())

	const perDatagram = 32
	dg := EncodeDatagram(nil, benchRecords(perDatagram))
	b.SetBytes(int64(len(dg)))
	b.ResetTimer()
	var sent uint64
	for sent < uint64(b.N)*perDatagram {
		if _, err := w.Write(dg); err != nil {
			b.Fatal(err)
		}
		sent += perDatagram
		// Credit window: never more than ~64 datagrams in flight.
		for sent > got.Load()+64*perDatagram {
			runtime.Gosched()
		}
	}
	for got.Load() < sent {
		runtime.Gosched()
	}
	b.StopTimer()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "pkts/s")
	if st := l.Stop(); st.Malformed != 0 {
		b.Fatalf("%d malformed datagrams", st.Malformed)
	}
}

// BenchmarkIngressGroupLoopback runs the same loopback measurement
// through an ingress.Group — sub-benchmarks for 1 and 4 REUSEPORT
// sockets, writers spread over distinct 4-tuples so the kernel hash
// actually fans out. On a multi-core host the 4-socket case should
// approach N× the single-socket rate; on a single-CPU host it mostly
// prices the group's serialization overhead (docs/PERFORMANCE.md,
// "Retired hand-written records").
func BenchmarkIngressGroupLoopback(b *testing.B) {
	for _, sockets := range []int{1, 4} {
		b.Run(map[int]string{1: "sockets=1", 4: "sockets=4"}[sockets], func(b *testing.B) {
			conns, reuse, err := ListenGroup("127.0.0.1:0", sockets)
			if err != nil {
				b.Fatal(err)
			}
			if sockets > 1 && !reuse {
				for _, c := range conns {
					c.Close()
				}
				b.Skip("SO_REUSEPORT unavailable on this platform")
			}
			pool := packet.NewPool()
			var got atomic.Uint64
			g, err := NewGroup(GroupConfig{
				Conns:         conns,
				AdaptiveBatch: true,
				Pool:          pool,
				Sink:          func(p *packet.Packet) { got.Add(1); pool.Put(p) },
			})
			if err != nil {
				b.Fatal(err)
			}
			g.Start(context.Background())

			const writers, perDatagram = 8, 32
			ws := make([]*net.UDPConn, writers)
			for i := range ws {
				w, err := net.DialUDP("udp", nil, g.LocalAddr().(*net.UDPAddr))
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				ws[i] = w
			}
			dg := EncodeDatagram(nil, benchRecords(perDatagram))
			b.SetBytes(int64(len(dg)))
			b.ResetTimer()
			var sent uint64
			for i := 0; sent < uint64(b.N)*perDatagram; i++ {
				if _, err := ws[i%writers].Write(dg); err != nil {
					b.Fatal(err)
				}
				sent += perDatagram
				for sent > got.Load()+64*perDatagram {
					runtime.Gosched()
				}
			}
			for got.Load() < sent {
				runtime.Gosched()
			}
			b.StopTimer()
			b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "pkts/s")
			if st := g.Stop(); st.Malformed != 0 {
				b.Fatalf("%d malformed datagrams", st.Malformed)
			}
		})
	}
}
