//go:build !linux

package ingress

import (
	"net"
	"sync/atomic"
)

// newBatchReceiver picks the receive path for this platform. Without
// recvmmsg, every platform gets the portable single-datagram loop.
func newBatchReceiver(conn net.PacketConn, adapt *vecAdapt, maxDatagram int, stopping *atomic.Bool) (batchReceiver, error) {
	_, _ = adapt, stopping // the portable path has no receive vector and no poll to stop
	return newPortableReceiver(conn, maxDatagram), nil
}
