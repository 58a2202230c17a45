package main

import (
	"testing"
	"time"

	"laps"
)

// TestSummaryLines pins the two summary lines CI's ingress-smoke job
// greps for "packets=N malformed=0" and "processed=N dropped=0 ooo=0".
func TestSummaryLines(t *testing.T) {
	clean := laps.RunResult{
		Live:           laps.EngineStats{Processed: 150000, Migrations: 12, Fenced: 3, Elapsed: 1500 * time.Millisecond},
		Ingress:        &laps.IngressStats{Datagrams: 4688, Packets: 150000, RcvBuf: 425984, VectorLen: 64, BatchGrows: 1},
		IngressSockets: make([]laps.IngressStats, 1),
	}
	lossy := clean
	lossy.Live.Dropped, lossy.Live.OutOfOrder = 7, 2
	lossy.Ingress = &laps.IngressStats{Datagrams: 4690, Packets: 150000, Malformed: 2}
	cases := []struct {
		name string
		res  laps.RunResult
		want [2]string
	}{
		{"clean run", clean, [2]string{
			"lapsd: ingress datagrams=4688 packets=150000 malformed=0 sockets=1 rcvbuf=425984 vector=64 grows=1 shrinks=0",
			"lapsd: engine processed=150000 dropped=0 ooo=0 migrations=12 fenced=3 wall=1.5s throughput=100000 pps",
		}},
		{"loss, reordering and malformed datagrams", lossy, [2]string{
			"lapsd: ingress datagrams=4690 packets=150000 malformed=2 sockets=1 rcvbuf=0 vector=0 grows=0 shrinks=0",
			"lapsd: engine processed=150000 dropped=7 ooo=2 migrations=12 fenced=3 wall=1.5s throughput=100000 pps",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := summary(&tc.res, laps.MemoryAuto, 0)
			if len(got) != 2 || got[0] != tc.want[0] || got[1] != tc.want[1] {
				t.Fatalf("summary\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
