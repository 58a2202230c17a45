package ingress

import (
	"fmt"
	"io"

	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/packet"
)

// Sender assembles wire-format datagrams and writes them to w (a
// connected UDP socket in practice — anything that delivers one Write
// as one datagram). It assigns the per-flow sequence numbers the
// receiver's reorder tracker checks, so a Sender-driven run measures
// loss and out-of-order delivery end to end. Not safe for concurrent
// use: one Sender per socket, like one reader per socket on the other
// side.
type Sender struct {
	w     io.Writer
	buf   []byte
	max   int // records per datagram before an automatic flush
	count int
	seqs  *flowtab.Table[uint64]

	sent      uint64
	datagrams uint64
}

// NewSender builds a sender that flushes every recsPerDatagram records
// (clamped to 1..MaxRecords; 0 means 32).
func NewSender(w io.Writer, recsPerDatagram int) *Sender {
	if recsPerDatagram <= 0 {
		recsPerDatagram = 32
	}
	if recsPerDatagram > MaxRecords {
		recsPerDatagram = MaxRecords
	}
	return &Sender{
		w:    w,
		buf:  appendHeader(make([]byte, 0, HeaderLen+recsPerDatagram*RecordLen)),
		max:  recsPerDatagram,
		seqs: flowtab.New[uint64](1 << 12),
	}
}

// Send queues one packet announcement for the flow, assigning its next
// per-flow sequence number, and flushes when the datagram fills.
func (s *Sender) Send(flow packet.FlowKey, svc packet.ServiceID, size int) error {
	seq := s.seqs.Ref(flow, crc.FlowHash(flow))
	r := Record{Flow: flow, Service: svc, Size: size, Seq: *seq}
	*seq++
	return s.SendRecord(r)
}

// SendRecord queues one record with an explicit sequence number (tests
// use it to forge reordered or duplicate streams) and flushes when the
// datagram fills.
func (s *Sender) SendRecord(r Record) error {
	s.buf = appendRecord(s.buf, r)
	s.count++
	s.sent++
	if s.count >= s.max {
		return s.Flush()
	}
	return nil
}

// Flush writes the pending datagram, if any. Call once after the last
// Send so a partial datagram is not stranded.
//
// On a write error the pending records are dropped and the buffer
// reset before returning. Keeping them staged
// for a retry would let count grow past MaxRecords on subsequent
// Sends, and byte(count) would then silently wrap the wire's one-byte
// record count — the receiver sees a well-formed datagram announcing
// the wrong number of records and rejects the rest as a length
// mismatch.
func (s *Sender) Flush() error {
	if s.count == 0 {
		return nil
	}
	s.buf[3] = byte(s.count)
	_, err := s.w.Write(s.buf)
	// Reset only after Write returns: appendHeader reuses buf's backing
	// array, so resetting first would scribble over the outgoing bytes.
	s.buf = appendHeader(s.buf[:0])
	s.count = 0
	if err != nil {
		return fmt.Errorf("ingress: send datagram: %w", err)
	}
	s.datagrams++
	return nil
}

// Sent reports records queued (flushed, pending or dropped by a failed
// flush), Datagrams the datagrams written, and Flows the distinct flows
// sequenced so far.
func (s *Sender) Sent() uint64      { return s.sent }
func (s *Sender) Datagrams() uint64 { return s.datagrams }
func (s *Sender) Flows() int        { return s.seqs.Len() }
