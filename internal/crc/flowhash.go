package crc

import "laps/internal/packet"

// FlowHash returns the CRC16 of a flow key's canonical 13-byte encoding.
// This is the hash the scheduler's map tables are indexed by.
//
// The 13 table steps are unrolled directly over the FlowKey fields in
// big-endian order — identical to Reference(k.Bytes()[:]) (pinned by
// TestFlowHashMatchesChecksumOfEncoding) but without materialising the byte
// encoding or paying a slice-range loop, since this runs once per packet
// at ingress.
func FlowHash(k packet.FlowKey) uint16 {
	crc := Init
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.SrcIP>>24)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.SrcIP>>16)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.SrcIP>>8)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.SrcIP)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.DstIP>>24)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.DstIP>>16)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.DstIP>>8)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.DstIP)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.SrcPort>>8)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.SrcPort)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.DstPort>>8)]
	crc = crc<<8 ^ table[byte(crc>>8)^byte(k.DstPort)]
	crc = crc<<8 ^ table[byte(crc>>8)^k.Proto]
	return crc
}

// PacketHash returns the packet's cached flow hash, computing and
// caching it on first use. Ingress paths call Prime so that by the time
// a packet reaches the dispatch/forwarding hot path this is a plain
// field read; the lazy branch exists so hand-built packets (tests,
// direct Dispatch callers) stay correct without priming.
func PacketHash(p *packet.Packet) uint16 {
	if !p.HashOK {
		p.Hash = FlowHash(p.Flow)
		p.HashOK = true
	}
	return p.Hash
}

// Prime computes and caches the flow hash on p. Call once at ingress —
// traffic generation, pcap decode, Inject — mirroring the hardware hash
// unit that computes CRC16 exactly once per arriving frame (§III).
func Prime(p *packet.Packet) {
	p.Hash = FlowHash(p.Flow)
	p.HashOK = true
}
