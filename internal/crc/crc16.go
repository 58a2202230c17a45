// Package crc implements the CRC16 checksum the paper uses to hash flow
// identifiers (§III: "This five tuple is hashed using CRC16 to get an
// index into a map table. CRC16 is shown to provide good performance for
// hashing IP headers"). The variant is CRC16/CCITT-FALSE (polynomial
// 0x1021, initial value 0xFFFF, no reflection, no final XOR), a common
// choice in network hardware.
//
// Two implementations are provided: FlowHash, table-driven and unrolled
// over a flow key for the scheduler critical path, and a bit-at-a-time
// Reference used to cross-check it in tests.
package crc

// Poly is the CCITT generator polynomial x^16 + x^12 + x^5 + 1.
const Poly uint16 = 0x1021

// Init is the CCITT-FALSE initial shift-register value.
const Init uint16 = 0xFFFF

// table[b] is the CRC of the single byte b with a zero initial register,
// folded into the running value one byte at a time.
var table = makeTable()

func makeTable() *[256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ Poly
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return &t
}

// Reference computes the CRC16/CCITT-FALSE of data one bit at a time. It
// exists so tests can verify the table-driven implementation against the
// polynomial definition; do not use it on hot paths.
func Reference(data []byte) uint16 {
	crc := Init
	for _, b := range data {
		crc ^= uint16(b) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ Poly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
