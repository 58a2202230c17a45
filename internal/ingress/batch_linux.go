//go:build linux

package ingress

import (
	"net"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr. No explicit padding: Go
// rounds the struct to syscall.Msghdr's alignment exactly the way the C
// ABI does on every Linux arch, so an []mmsghdr is layout-compatible
// with the vector recvmmsg expects.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // msg_len: bytes received, filled by the kernel
}

// mmsgReceiver is the Linux fast path: one recvmmsg system call drains
// up to the adaptive vector length's worth of datagrams into
// preallocated buffers, integrated with the runtime netpoller through
// syscall.RawConn — the receive vector is tried with MSG_DONTWAIT and
// the goroutine parks in the poller only when the socket is truly
// empty. Steady state performs zero heap allocations: headers, iovecs
// and buffers are built once at construction — sized for the adaptive
// maximum, so growing the vector never allocates — and reused for
// every batch.
type mmsgReceiver struct {
	rc       syscall.RawConn
	stopping *atomic.Bool
	adapt    *vecAdapt

	hdrs []mmsghdr
	iovs []syscall.Iovec
	bufs [][]byte
	lens []int

	readFn func(fd uintptr) bool // pre-bound onReadable (no per-recv closure)
	onIdle func()
	idled  bool
	vec    int // vector slots offered to the last recvmmsg
	nrecv  int
	rerr   error
}

// newBatchReceiver builds the recvmmsg receiver, falling back to the
// portable loop for connections that do not expose a raw descriptor.
func newBatchReceiver(conn net.PacketConn, adapt *vecAdapt, maxDatagram int, stopping *atomic.Bool) (batchReceiver, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return newPortableReceiver(conn, maxDatagram), nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, err
	}
	max := adapt.max
	r := &mmsgReceiver{
		rc:       rc,
		stopping: stopping,
		adapt:    adapt,
		hdrs:     make([]mmsghdr, max),
		iovs:     make([]syscall.Iovec, max),
		bufs:     make([][]byte, max),
		lens:     make([]int, max),
	}
	for i := range r.hdrs {
		buf := make([]byte, maxDatagram)
		r.bufs[i] = buf
		r.iovs[i].Base = &buf[0]
		r.iovs[i].SetLen(maxDatagram)
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
	}
	r.readFn = r.onReadable
	return r, nil
}

// onReadable runs inside RawConn.Read with the descriptor ready (or
// presumed ready): try a non-blocking recvmmsg over the current
// adaptive vector length. Returning false parks the goroutine in the
// netpoller until the socket is readable again.
func (r *mmsgReceiver) onReadable(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(r.vec),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case 0:
			r.nrecv = int(n)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			if r.stopping.Load() {
				// Drain mode: an empty buffer ends the listener, it
				// does not park it.
				r.rerr = errWouldBlock
				return true
			}
			if !r.idled && r.onIdle != nil {
				r.onIdle()
				r.idled = true
			}
			return false
		default:
			r.rerr = errno
			return true
		}
	}
}

func (r *mmsgReceiver) recv(onIdle func()) (int, error) {
	r.onIdle, r.idled, r.nrecv, r.rerr = onIdle, false, 0, nil
	r.vec = r.adapt.cur()
	if err := r.rc.Read(r.readFn); err != nil {
		return 0, err
	}
	if r.rerr != nil {
		return 0, r.rerr
	}
	for i := 0; i < r.nrecv; i++ {
		r.lens[i] = int(r.hdrs[i].n)
	}
	r.adapt.note(r.nrecv, r.vec)
	return r.nrecv, nil
}

func (r *mmsgReceiver) buf(i int) []byte { return r.bufs[i][:r.lens[i]] }

func (r *mmsgReceiver) offered() int { return r.vec }

func (r *mmsgReceiver) vectorLen() int { return r.adapt.cur() }

func (r *mmsgReceiver) adaptCounts() (uint64, uint64) {
	return r.adapt.grows.Load(), r.adapt.shrinks.Load()
}
