package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		target, scenario, pcap          string
		count, flows, conns, dgramBatch int
		want                            string // "" = accepted
	}{
		{"127.0.0.1:4040", "", "", 100000, 1024, 1, 32, ""},
		{"127.0.0.1:4040", "", "", 100000, 1024, 8, 1, ""},
		{"127.0.0.1:4040", "", "", 100000, 1024, 1, 255, ""},
		{"127.0.0.1:4040", "T5", "", 100000, 0, 1, 32, ""}, // -flows is synthetic mode's alone
		{"", "", "", 100000, 1024, 1, 32, "-target is required"},
		{"127.0.0.1:4040", "T5", "x.pcap", 100000, 1024, 1, 32, "mutually exclusive"},
		{"127.0.0.1:4040", "", "", 0, 1024, 1, 32, "-count must be positive"},
		{"127.0.0.1:4040", "", "", 100000, 0, 1, 32, "-flows must be positive"},
		{"127.0.0.1:4040", "", "", 100000, 1024, 0, 32, "-conns must be >= 1"},
		// 0 once divided the pacing loop's record counter by zero.
		{"127.0.0.1:4040", "", "", 100000, 1024, 1, 0, "-dgram-batch must be in 1..255, got 0"},
		{"127.0.0.1:4040", "", "", 100000, 1024, 1, -1, "-dgram-batch must be in 1..255, got -1"},
		{"127.0.0.1:4040", "", "", 100000, 1024, 1, 256, "-dgram-batch must be in 1..255, got 256"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.target, tc.scenario, tc.pcap, tc.count, tc.flows, tc.conns, tc.dgramBatch)
		if (tc.want == "" && err != nil) || (tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want))) {
			t.Errorf("checkFlags(%+v) = %v, want %q", tc, err, tc.want)
		}
	}
}
