// Package packet defines the packet and flow model shared by every layer
// of the simulator: the 5-tuple flow identifier the scheduler hashes, the
// service (application) a packet requires, and the packet descriptor that
// travels through the network-processor model.
package packet

import (
	"encoding/binary"
	"fmt"

	"laps/internal/sim"
)

// FlowKey is the 5-tuple that identifies a flow: all packets sharing a
// FlowKey must be processed by the same core to preserve flow locality
// and intra-flow order (paper §I). IPv4 addresses are stored as
// big-endian uint32 so the type is comparable and hashable as a map key.
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// KeyBytes is the length of the canonical byte encoding of a FlowKey.
const KeyBytes = 13

// Bytes returns the canonical 13-byte encoding of the key.
func (k FlowKey) Bytes() [KeyBytes]byte {
	var buf [KeyBytes]byte
	binary.BigEndian.PutUint32(buf[0:4], k.SrcIP)
	binary.BigEndian.PutUint32(buf[4:8], k.DstIP)
	binary.BigEndian.PutUint16(buf[8:10], k.SrcPort)
	binary.BigEndian.PutUint16(buf[10:12], k.DstPort)
	buf[12] = k.Proto
	return buf
}

// String renders the key in the conventional src->dst/proto notation.
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d",
		ipString(k.SrcIP), k.SrcPort, ipString(k.DstIP), k.DstPort, k.Proto)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Well-known protocol numbers used by the trace generators.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// ServiceID names one of the router's services (a path through the task
// graph of Fig 5). A core's I-cache can hold only one service's code at a
// time, so the scheduler partitions cores by ServiceID.
type ServiceID uint8

// The four services of the paper's workload model (§IV-B).
const (
	SvcVPNOut      ServiceID = iota // path 1: outgoing packets tunneled via VPN
	SvcIPForward                    // path 2: default IP forwarding
	SvcMalwareScan                  // path 3: incoming packets scanned for malware
	SvcVPNIn                        // path 4: incoming VPN packets: decrypt + scan
	NumServices    = 4
)

// String returns the service's short name.
func (s ServiceID) String() string {
	switch s {
	case SvcVPNOut:
		return "vpn-out"
	case SvcIPForward:
		return "ip-fwd"
	case SvcMalwareScan:
		return "scan"
	case SvcVPNIn:
		return "vpn-in"
	default:
		return fmt.Sprintf("svc%d", uint8(s))
	}
}

// Packet is the descriptor the frame manager hands to the scheduler: the
// flow identity, required service, payload size and arrival time. FlowSeq
// is the packet's position within its flow and is what the egress reorder
// tracker checks; real hardware gets the same information implicitly from
// arrival order on the wire.
type Packet struct {
	ID      uint64    // global arrival sequence number
	Flow    FlowKey   // 5-tuple flow identity
	Service ServiceID // which program must process this packet
	Size    int       // frame size in bytes
	Arrival sim.Time  // when the frame manager received it
	FlowSeq uint64    // per-flow sequence number (0 = first packet)

	// Hash caches crc.FlowHash(Flow), computed exactly once at ingress
	// the way a hardware hash unit would (§III). HashOK distinguishes a
	// primed hash from the zero value — 0 is a valid CRC16, so absence
	// cannot be encoded in Hash itself. Use crc.PacketHash to read it;
	// never consult Hash directly without checking HashOK.
	Hash   uint16
	HashOK bool

	// Simulation bookkeeping, set as the packet moves through npsim.
	Enqueued sim.Time // when it entered a core's input queue
	Departed sim.Time // when processing finished
	Migrated bool     // true if this packet found its flow on a new core
	ColdMiss bool     // true if it paid the I-cache cold-start penalty
}
