package main

import (
	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/trace"
	"laps/internal/traffic"
)

// burstLen is the feed shape of every live workload: 32 packets per
// call, the datagram shape of the UDP front door.
const burstLen = 32

// rec is one generated packet header. The engine only ever sees packets
// filled from these; generation happens in set-up.
type rec struct {
	flow packet.FlowKey
	hash uint16 // crc.FlowHash(flow), primed in set-up like an ingress hash unit
	size uint16
	svc  uint8
	conn uint8  // UDP sender connection the flow is pinned to (hash mod 2)
	seq  uint32 // the packet's position in its flow within one pass over the array
	per  uint32 // the flow's packets per pass: seq + pass*per continues the numbering
}

// roundBurst rounds n down to whole bursts (at least one), so a burst
// never straddles the end of the record array.
func roundBurst(n int) int {
	if n < burstLen {
		return burstLen
	}
	return n - n%burstLen
}

// numberFlows assigns per-flow sequence numbers over one pass and each
// flow's pass length, and returns the distinct-flow count.
func numberFlows(recs []rec) int {
	counts := flowtab.New[uint32](1 << 16)
	for i := range recs {
		r := &recs[i]
		c := counts.Ref(r.flow, r.hash)
		r.seq = *c
		*c++
	}
	for i := range recs {
		r := &recs[i]
		r.per = *counts.Ref(r.flow, r.hash)
	}
	return counts.Len()
}

// caidaSources returns the four per-service CAIDA-like trace presets a
// seed selects; seed 1 is Table V's group G1 (presets 1..4).
func caidaSources(seed uint64) [packet.NumServices]trace.Source {
	var srcs [packet.NumServices]trace.Source
	for s := range srcs {
		srcs[s] = trace.CAIDALike(int(seed-1)*packet.NumServices + s + 1)
	}
	return srcs
}

// genCAIDA draws n records from the four-service CAIDA-like mix: the
// services take turns eight records at a time, so a 32-packet burst
// carries all four and keeps each source's own packet trains intact.
func genCAIDA(seed uint64, n int) []rec {
	srcs := caidaSources(seed)
	recs := make([]rec, n)
	for i := range recs {
		svc := i / 8 % packet.NumServices
		tr, _ := srcs[svc].Next()
		recs[i] = newRec(tr, uint8(svc))
	}
	numberFlows(recs)
	return recs
}

// genChurn draws n records from the million-flow churn preset. A flow
// keeps one service (by hash), as a classifier would assign it.
func genChurn(seed uint64, n int) []rec {
	src := traffic.MillionFlowChurn(int(seed))
	recs := make([]rec, n)
	for i := range recs {
		tr, seq, _ := src.NextSeq()
		r := newRec(tr, 0)
		r.svc = uint8(r.hash) % packet.NumServices
		r.seq = uint32(seq)
		recs[i] = r
	}
	return recs
}

func newRec(tr trace.Record, svc uint8) rec {
	h := crc.FlowHash(tr.Flow)
	return rec{flow: tr.Flow, hash: h, size: uint16(tr.Size), svc: svc, conn: uint8(h % udpConns)}
}

// fill stamps a pooled descriptor from a record on its pass'th trip
// through the array.
func (r *rec) fill(p *packet.Packet, id uint64, pass int, arrival int64) {
	p.ID = id
	p.Flow = r.flow
	p.Service = packet.ServiceID(r.svc)
	p.Size = int(r.size)
	p.FlowSeq = uint64(r.seq) + uint64(pass)*uint64(r.per)
	p.Hash, p.HashOK = r.hash, true
	p.Arrival = sim.Time(arrival)
}
