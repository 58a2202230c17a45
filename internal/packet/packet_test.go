package packet

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// fromBytes decodes the canonical encoding Bytes produces.
func fromBytes(b [KeyBytes]byte) FlowKey {
	return FlowKey{
		SrcIP:   binary.BigEndian.Uint32(b[0:4]),
		DstIP:   binary.BigEndian.Uint32(b[4:8]),
		SrcPort: binary.BigEndian.Uint16(b[8:10]),
		DstPort: binary.BigEndian.Uint16(b[10:12]),
		Proto:   b[12],
	}
}

func TestFlowKeyBytesRoundTrip(t *testing.T) {
	k := FlowKey{
		SrcIP:   0xC0A80001, // 192.168.0.1
		DstIP:   0x08080808, // 8.8.8.8
		SrcPort: 54321,
		DstPort: 443,
		Proto:   ProtoTCP,
	}
	if got := fromBytes(k.Bytes()); got != k {
		t.Fatalf("round trip = %+v, want %+v", got, k)
	}
}

func TestFlowKeyBytesRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		return fromBytes(k.Bytes()) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowKeyBytesBigEndianLayout(t *testing.T) {
	k := FlowKey{
		SrcIP:   0x01020304,
		DstIP:   0x05060708,
		SrcPort: 0x090A,
		DstPort: 0x0B0C,
		Proto:   0x0D,
	}
	b := k.Bytes()
	want := [KeyBytes]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	if b != want {
		t.Fatalf("Bytes() = %v, want %v", b, want)
	}
}

func TestFlowKeyDistinctKeysDistinctBytes(t *testing.T) {
	// Injectivity spot-check: perturbing any field changes the encoding.
	base := FlowKey{SrcIP: 10, DstIP: 20, SrcPort: 30, DstPort: 40, Proto: 6}
	variants := []FlowKey{
		{SrcIP: 11, DstIP: 20, SrcPort: 30, DstPort: 40, Proto: 6},
		{SrcIP: 10, DstIP: 21, SrcPort: 30, DstPort: 40, Proto: 6},
		{SrcIP: 10, DstIP: 20, SrcPort: 31, DstPort: 40, Proto: 6},
		{SrcIP: 10, DstIP: 20, SrcPort: 30, DstPort: 41, Proto: 6},
		{SrcIP: 10, DstIP: 20, SrcPort: 30, DstPort: 40, Proto: 17},
	}
	bb := base.Bytes()
	for _, v := range variants {
		if v.Bytes() == bb {
			t.Errorf("variant %+v encodes identically to base", v)
		}
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{
		SrcIP:   0xC0A80001,
		DstIP:   0x08080404,
		SrcPort: 1234,
		DstPort: 80,
		Proto:   ProtoTCP,
	}
	want := "192.168.0.1:1234->8.8.4.4:80/6"
	if got := k.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestServiceIDString(t *testing.T) {
	cases := map[ServiceID]string{
		SvcVPNOut:      "vpn-out",
		SvcIPForward:   "ip-fwd",
		SvcMalwareScan: "scan",
		SvcVPNIn:       "vpn-in",
		ServiceID(9):   "svc9",
	}
	for id, want := range cases {
		if got := id.String(); got != want {
			t.Errorf("ServiceID(%d).String() = %q, want %q", uint8(id), got, want)
		}
	}
}

func TestNumServices(t *testing.T) {
	if NumServices != 4 {
		t.Fatalf("NumServices = %d, want 4 (paper's task graph has 4 paths)", NumServices)
	}
}
