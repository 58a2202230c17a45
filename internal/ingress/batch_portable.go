package ingress

import (
	"net"
	"net/netip"
)

// addrPortReader is the allocation-free receive method: the peer comes
// back as a value, so nothing escapes per datagram. *net.UDPConn has
// it, and wrapper conns can provide it to stay on the no-alloc path —
// the structural check below picks it up wherever it appears, rather
// than gating on the concrete *net.UDPConn type.
type addrPortReader interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
}

// portableReceiver is the lowest-common-denominator receive path: one
// datagram per recv call through the portable net API. Conns with
// ReadFromUDPAddrPort allocate nothing; any other PacketConn pays
// ReadFrom's per-call address allocation (documented, and pinned by
// TestPortableReceiverAllocs). Because the portable API cannot ask
// "would this read block?", onIdle runs before every read — correct
// (no staged packet waits on a silent socket) at the cost of
// publishing dispatch batches more eagerly than the Linux path does.
type portableReceiver struct {
	conn net.PacketConn
	udp  addrPortReader // non-nil = no-alloc path
	b    []byte
	n    int
}

func newPortableReceiver(conn net.PacketConn, maxDatagram int) *portableReceiver {
	r := &portableReceiver{conn: conn, b: make([]byte, maxDatagram)}
	r.udp, _ = conn.(addrPortReader)
	return r
}

func (r *portableReceiver) recv(onIdle func()) (int, error) {
	if onIdle != nil {
		onIdle()
	}
	var (
		n   int
		err error
	)
	if r.udp != nil {
		n, _, err = r.udp.ReadFromUDPAddrPort(r.b)
	} else {
		n, _, err = r.conn.ReadFrom(r.b)
	}
	if err != nil {
		return 0, err
	}
	r.n = n
	return 1, nil
}

func (r *portableReceiver) buf(i int) []byte {
	_ = i // always 0: this receiver reads one datagram per recv
	return r.b[:r.n]
}

// offered is always 1: the portable path has no receive vector, so
// every delivered batch reads as 100% full.
func (r *portableReceiver) offered() int { return 1 }
