package main

import (
	"sort"
	"strings"
	"testing"
	"time"
)

type flagCase struct {
	set      string // flags given on the command line, space-separated
	interval time.Duration
	http     string
	mode     string // mode returned when accepted
	want     string // "" = accepted
}

func TestValidateFlags(t *testing.T) {
	cases := []flagCase{
		{"", time.Millisecond, "", "table", ""},
		{"exp cores seed", time.Millisecond, "", "table", ""},
		{"list", time.Millisecond, "", "list", ""},
		{"trace chrome metrics metrics-interval scenario", time.Millisecond, "", "telemetry", ""},
		{"live live-workers live-dispatchers live-pace live-work live-block live-faults live-detect flow-budget memory pcap scenario http",
			time.Millisecond, "127.0.0.1:0", "live", ""},
		{"exp list", time.Millisecond, "", "", "flags select conflicting modes (list, table)"},
		{"exp trace", time.Millisecond, "", "", "flags select conflicting modes (table, telemetry)"},
		{"chrome live", time.Millisecond, "", "", "flags select conflicting modes (live, telemetry)"},
		{"list metrics live", time.Millisecond, "", "", "flags select conflicting modes (list, live, telemetry)"},
		{"trace metrics-interval", 0, "", "", "-metrics-interval must be positive, got 0s"},
		{"trace metrics-interval", -time.Second, "", "", "-metrics-interval must be positive, got -1s"},
		{"live http", time.Millisecond, "", "", "-http needs a listen address"},
		{"scenario", time.Millisecond, "", "", "-scenario only applies to telemetry/live mode"},
		{"list scenario", time.Millisecond, "", "", "-scenario only applies to telemetry/live mode"},
	}
	// Every mode-specific option is rejected in table mode.
	opts := make([]string, 0, len(optionFlags))
	for name := range optionFlags {
		opts = append(opts, name)
	}
	sort.Strings(opts)
	for _, name := range opts {
		want := "-" + name + " only applies to " + strings.Join(optionFlags[name], "/") + " mode"
		cases = append(cases, flagCase{name, time.Millisecond, "127.0.0.1:0", "", want})
	}
	for _, tc := range cases {
		set := map[string]bool{}
		for _, name := range strings.Fields(tc.set) {
			set[name] = true
		}
		mode, err := validateFlags(set, tc.interval, tc.http)
		switch {
		case tc.want == "" && (err != nil || mode != tc.mode):
			t.Errorf("validateFlags(%q) = %q, %v; want mode %q", tc.set, mode, err, tc.mode)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("validateFlags(%q) = %q, %v; want error containing %q", tc.set, mode, err, tc.want)
		}
	}
}
