package main

import (
	"strings"
	"testing"
	"time"

	"laps"
)

// TestSummaryLines pins the two summary lines CI's ingress-smoke job
// greps for "packets=N malformed=0" and "processed=N dropped=0 ooo=0",
// and the memory line, which a run prints exactly when it has a flow
// budget.
func TestSummaryLines(t *testing.T) {
	clean := laps.RunResult{
		Live:           laps.EngineStats{Processed: 150000, Migrations: 12, Fenced: 3, Elapsed: 1500 * time.Millisecond},
		Ingress:        &laps.IngressStats{Datagrams: 4688, Packets: 150000, RcvBuf: 425984, VectorLen: 64, BatchGrows: 1},
		IngressSockets: make([]laps.IngressStats, 1),
	}
	lossy := clean
	lossy.Live.Dropped, lossy.Live.OutOfOrder = 7, 2
	lossy.Ingress = &laps.IngressStats{Datagrams: 4690, Packets: 150000, Malformed: 2}
	budgeted := clean
	budgeted.Live.FlowBudgetHits, budgeted.Live.EstimatedOOO, budgeted.Live.WitnessLevel = 32, 0, 3
	cases := []struct {
		name   string
		res    laps.RunResult
		budget int
		want   []string
	}{
		{"clean run", clean, 0, []string{
			"lapsd: ingress datagrams=4688 packets=150000 malformed=0 sockets=1 rcvbuf=425984 vector=64 grows=1 shrinks=0",
			"lapsd: engine processed=150000 dropped=0 ooo=0 migrations=12 fenced=3 wall=1.5s throughput=100000 pps",
		}},
		{"loss, reordering and malformed datagrams", lossy, 0, []string{
			"lapsd: ingress datagrams=4690 packets=150000 malformed=2 sockets=1 rcvbuf=0 vector=0 grows=0 shrinks=0",
			"lapsd: engine processed=150000 dropped=7 ooo=2 migrations=12 fenced=3 wall=1.5s throughput=100000 pps",
		}},
		{"flow budget", budgeted, 65536, []string{
			"lapsd: ingress datagrams=4688 packets=150000 malformed=0 sockets=1 rcvbuf=425984 vector=64 grows=1 shrinks=0",
			"lapsd: engine processed=150000 dropped=0 ooo=0 migrations=12 fenced=3 wall=1.5s throughput=100000 pps",
			"lapsd: memory budget=65536 budget-hits=32 estimated-ooo=0 witness_level=3",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := summary(&tc.res, tc.budget)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("summary\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestCheckFlags pins lapsd's own flag checks; laps.Run checks the rest
// of the configuration.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		sockets int
		want    string // "" = accepted
	}{
		{1, ""},
		{4, ""},
		{0, "-sockets must be >= 1 (got 0)"},
		{-2, "-sockets must be >= 1 (got -2)"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.sockets)
		if (tc.want == "" && err != nil) || (tc.want != "" && (err == nil || err.Error() != tc.want)) {
			t.Errorf("checkFlags(%d) = %v, want %q", tc.sockets, err, tc.want)
		}
	}
}
