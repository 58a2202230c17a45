package crc

import (
	"testing"
	"testing/quick"

	"laps/internal/packet"
)

// tableCRC folds data through the lookup table one byte at a time: the
// step FlowHash unrolls over the 13 key bytes, here over any length.
func tableCRC(data []byte) uint16 {
	crc := Init
	for _, b := range data {
		crc = crc<<8 ^ table[byte(crc>>8)^b]
	}
	return crc
}

// Known-answer tests for CRC16/CCITT-FALSE. "123456789" -> 0x29B1 is the
// standard check value for this variant.
func TestChecksumKnownAnswers(t *testing.T) {
	cases := []struct {
		in   string
		want uint16
	}{
		{"123456789", 0x29B1},
		{"", 0xFFFF}, // empty message leaves the initial register
		{"A", 0xB915},
		{"\x00", 0xE1F0},
	}
	for _, c := range cases {
		if got := Reference([]byte(c.in)); got != c.want {
			t.Errorf("Reference(%q) = %#04x, want %#04x", c.in, got, c.want)
		}
		if got := tableCRC([]byte(c.in)); got != c.want {
			t.Errorf("table CRC of %q = %#04x, want %#04x", c.in, got, c.want)
		}
	}
}

func TestTableMatchesReference(t *testing.T) {
	f := func(data []byte) bool {
		return tableCRC(data) == Reference(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumSensitivity(t *testing.T) {
	// Flipping any single bit of a flow key must change its hash (CRC16
	// detects all single-bit errors).
	var flips []packet.FlowKey
	for bit := 0; bit < 32; bit++ {
		flips = append(flips, packet.FlowKey{SrcIP: 1 << bit}, packet.FlowKey{DstIP: 1 << bit})
	}
	for bit := 0; bit < 16; bit++ {
		flips = append(flips, packet.FlowKey{SrcPort: 1 << bit}, packet.FlowKey{DstPort: 1 << bit})
	}
	for bit := 0; bit < 8; bit++ {
		flips = append(flips, packet.FlowKey{Proto: 1 << bit})
	}
	k := packet.FlowKey{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 0x090A, DstPort: 0x0B0C, Proto: 13}
	base := FlowHash(k)
	for _, d := range flips {
		mut := packet.FlowKey{SrcIP: k.SrcIP ^ d.SrcIP, DstIP: k.DstIP ^ d.DstIP,
			SrcPort: k.SrcPort ^ d.SrcPort, DstPort: k.DstPort ^ d.DstPort, Proto: k.Proto ^ d.Proto}
		if FlowHash(mut) == base {
			t.Fatalf("single-bit flip %v undetected", d)
		}
	}
}

func TestFlowHashMatchesChecksumOfEncoding(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		b := k.Bytes()
		return FlowHash(k) == Reference(b[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowHashDeterministic(t *testing.T) {
	k := packet.FlowKey{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 80, DstPort: 8080, Proto: 6}
	h1 := FlowHash(k)
	h2 := FlowHash(k)
	if h1 != h2 {
		t.Fatalf("FlowHash not deterministic: %#04x vs %#04x", h1, h2)
	}
}

func TestFlowHashSpreads(t *testing.T) {
	// Sequential port numbers (worst-case structured input) should still
	// spread across buckets reasonably: with 4096 flows into 16 buckets,
	// no bucket should hold more than 3x the mean.
	const flows, buckets = 4096, 16
	var counts [buckets]int
	for i := 0; i < flows; i++ {
		k := packet.FlowKey{
			SrcIP: 0xC0A80000 + uint32(i%256), DstIP: 0x08080808,
			SrcPort: uint16(1024 + i), DstPort: 443, Proto: 6,
		}
		counts[FlowHash(k)%buckets]++
	}
	mean := flows / buckets
	for b, c := range counts {
		if c > 3*mean {
			t.Errorf("bucket %d holds %d flows, > 3x mean %d", b, c, mean)
		}
	}
}

func BenchmarkFlowHash(b *testing.B) {
	k := packet.FlowKey{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 80, DstPort: 8080, Proto: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkU16 = FlowHash(k)
	}
}

var sinkU16 uint16

// TestPacketHashMatchesFlowHash pins the hash-once invariant at its
// root: the lazy accessor and the unconditional primer both leave the
// packet carrying exactly FlowHash(p.Flow), and a second call reuses
// the cached value instead of recomputing.
func TestPacketHashMatchesFlowHash(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		want := FlowHash(k)

		lazy := &packet.Packet{Flow: k}
		if PacketHash(lazy) != want || !lazy.HashOK || lazy.Hash != want {
			return false
		}
		// Corrupt the cache: the accessor must now return the cached
		// value, proving it does not rehash once primed.
		lazy.Hash = want + 1
		if PacketHash(lazy) != want+1 {
			return false
		}

		primed := &packet.Packet{Flow: k}
		Prime(primed)
		return primed.HashOK && primed.Hash == want && PacketHash(primed) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
