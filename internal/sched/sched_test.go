package sched

import (
	"testing"

	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/sim"
)

type mockView struct {
	now  sim.Time
	qlen []int
	qcap int
}

func newMockView(cores int) *mockView {
	return &mockView{qlen: make([]int, cores), qcap: 32}
}

func (m *mockView) Now() sim.Time          { return m.now }
func (m *mockView) NumCores() int          { return len(m.qlen) }
func (m *mockView) QueueLen(c int) int     { return m.qlen[c] }
func (m *mockView) QueueCap() int          { return m.qcap }
func (m *mockView) IdleFor(c int) sim.Time { return 0 }

func pkt(flow int) *packet.Packet {
	return &packet.Packet{
		Flow:    packet.FlowKey{SrcIP: uint32(flow), DstPort: 80, Proto: 6},
		Service: packet.SvcIPForward,
		Size:    64,
	}
}

func TestFCFSAlwaysShared(t *testing.T) {
	var f FCFS
	if f.Name() != "fcfs" {
		t.Fatal("name")
	}
	v := newMockView(4)
	for i := 0; i < 10; i++ {
		if got := f.Target(pkt(i), v); got != npsim.SharedTarget {
			t.Fatalf("Target = %d, want SharedTarget", got)
		}
	}
}

func TestHashOnlyStaticAndStable(t *testing.T) {
	var h HashOnly
	v := newMockView(8)
	for f := 0; f < 100; f++ {
		want := int(crc.FlowHash(pkt(f).Flow)) % 8
		for rep := 0; rep < 3; rep++ {
			if got := h.Target(pkt(f), v); got != want {
				t.Fatalf("flow %d target %d, want %d", f, got, want)
			}
		}
	}
	// Overload never moves anything.
	for c := range v.qlen {
		v.qlen[c] = 32
	}
	want := int(crc.FlowHash(pkt(1).Flow)) % 8
	if got := h.Target(pkt(1), v); got != want {
		t.Fatal("hash-only migrated under overload")
	}
}

func TestAFSFollowsHashWhenBalanced(t *testing.T) {
	a := &AFS{}
	v := newMockView(8)
	for f := 0; f < 50; f++ {
		want := int(crc.FlowHash(pkt(f).Flow)) % 8
		if got := a.Target(pkt(f), v); got != want {
			t.Fatalf("flow %d target %d, want hash %d", f, got, want)
		}
	}
	if a.mig.Generation() != 0 {
		t.Fatal("migrations under balanced load")
	}
}

func TestAFSMigratesArbitraryFlowUnderOverload(t *testing.T) {
	a := &AFS{}
	v := newMockView(8)
	const flow = 3
	home := int(crc.FlowHash(pkt(flow).Flow)) % 8
	v.qlen[home] = 30 // over 3/4 of 32 = 24
	minc := (home + 1) % 8
	// make minc clearly the minimum
	for c := range v.qlen {
		if c != home && c != minc {
			v.qlen[c] = 5
		}
	}
	got := a.Target(pkt(flow), v)
	if got != minc {
		t.Fatalf("target %d, want min-queue core %d", got, minc)
	}
	if a.mig.Generation() != 1 {
		t.Fatalf("migration-table puts = %d, want 1", a.mig.Generation())
	}
	// Sticky: still there after load clears.
	v.qlen[home] = 0
	if got := a.Target(pkt(flow), v); got != minc {
		t.Fatal("migrated flow did not stick")
	}
}

func TestAFSMigratesEvenMiceFlows(t *testing.T) {
	// The defining AFS weakness: the first (never-seen) flow to arrive
	// during overload is migrated even though it is a mouse.
	a := &AFS{}
	v := newMockView(4)
	for c := range v.qlen {
		v.qlen[c] = 28
	}
	v.qlen[2] = 0
	migrs := uint64(0)
	for f := 100; f < 120; f++ {
		a.Target(pkt(f), v)
		if a.mig.Generation() > migrs {
			migrs = a.mig.Generation()
		}
	}
	if migrs == 0 {
		t.Fatal("AFS migrated nothing under global overload")
	}
}

func TestAFSNoMigrationWhenAllOverloaded(t *testing.T) {
	a := &AFS{}
	v := newMockView(4)
	for c := range v.qlen {
		v.qlen[c] = 32
	}
	home := int(crc.FlowHash(pkt(9).Flow)) % 4
	if got := a.Target(pkt(9), v); got != home {
		t.Fatal("migrated despite no under-loaded core")
	}
	if a.mig.Generation() != 0 {
		t.Fatal("counted migration with nowhere to go")
	}
}

func TestAFSCustomThreshold(t *testing.T) {
	a := &AFS{HighThresh: 5}
	v := newMockView(4)
	home := int(crc.FlowHash(pkt(7).Flow)) % 4
	v.qlen[home] = 5
	got := a.Target(pkt(7), v)
	if got == home {
		t.Fatal("custom threshold not honoured")
	}
}

func TestOracleOnlyMigratesTopFlows(t *testing.T) {
	o := &TopKOracle{K: 2, Recompute: 100}
	v := newMockView(8)
	// Train: flows 1 and 2 hot, flows 10..30 cold.
	for i := 0; i < 300; i++ {
		o.Target(pkt(1), v)
		o.Target(pkt(2), v)
		o.Target(pkt(10+i%20), v)
	}
	// Overload flow 1's home core.
	home := int(crc.FlowHash(pkt(1).Flow)) % 8
	v.qlen[home] = 30
	got := o.Target(pkt(1), v)
	if got == home {
		t.Fatal("top flow not migrated")
	}
	if o.mig.Generation() != 1 {
		t.Fatalf("migration-table puts = %d, want 1", o.mig.Generation())
	}
	// A cold flow with the same home must NOT migrate even under load.
	var cold *packet.Packet
	for f := 10; f < 30; f++ {
		if int(crc.FlowHash(pkt(f).Flow))%8 == home {
			cold = pkt(f)
			break
		}
	}
	if cold != nil {
		if got := o.Target(cold, v); got != home {
			t.Fatal("cold flow migrated by oracle")
		}
	}
}

func TestOracleName(t *testing.T) {
	o := &TopKOracle{K: 16}
	if o.Name() != "oracle-top16" {
		t.Fatalf("Name = %q", o.Name())
	}
}

func TestOracleTopSetTracksCounts(t *testing.T) {
	o := &TopKOracle{K: 1, Recompute: 10}
	v := newMockView(4)
	for i := 0; i < 50; i++ {
		o.Target(pkt(1), v)
	}
	for i := 0; i < 9; i++ {
		o.Target(pkt(2), v)
	}
	if !o.topSet[pkt(1).Flow] {
		t.Fatal("hottest flow missing from top set")
	}
	if o.topSet[pkt(2).Flow] {
		t.Fatal("runner-up in top-1 set")
	}
}

func TestOracleRecomputeSelection(t *testing.T) {
	// recompute must pick exactly the K largest counts.
	o := &TopKOracle{K: 3}
	o.init()
	for i := 1; i <= 10; i++ {
		o.counts[pkt(i).Flow] = uint64(i)
	}
	o.recompute()
	if len(o.topSet) != 3 {
		t.Fatalf("topSet size %d, want 3", len(o.topSet))
	}
	for i := 8; i <= 10; i++ {
		if !o.topSet[pkt(i).Flow] {
			t.Fatalf("flow %d missing from top-3", i)
		}
	}
}

func BenchmarkAFSTarget(b *testing.B) {
	a := &AFS{}
	v := newMockView(16)
	pkts := make([]*packet.Packet, 1024)
	for i := range pkts {
		pkts[i] = pkt(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Target(pkts[i&1023], v)
	}
}

func BenchmarkHashOnlyTarget(b *testing.B) {
	var h HashOnly
	v := newMockView(16)
	p := pkt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Target(p, v)
	}
}

func BenchmarkOracleTarget(b *testing.B) {
	o := &TopKOracle{K: 16}
	v := newMockView(16)
	pkts := make([]*packet.Packet, 4096)
	for i := range pkts {
		pkts[i] = pkt(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Target(pkts[i&4095], v)
	}
}

func TestOracleRecomputeDeterministicUnderTies(t *testing.T) {
	// Regression: with tied counts, the top-K set must not depend on map
	// iteration order (simulations are required to be reproducible).
	build := func(order []int) map[packet.FlowKey]bool {
		o := &TopKOracle{K: 3}
		o.init()
		for _, i := range order {
			o.counts[pkt(i).Flow] = 7 // all tied
		}
		o.recompute()
		return o.topSet
	}
	a := build([]int{1, 2, 3, 4, 5, 6})
	for trial := 0; trial < 20; trial++ {
		b := build([]int{6, 5, 4, 3, 2, 1})
		if len(a) != len(b) {
			t.Fatalf("set sizes differ: %d vs %d", len(a), len(b))
		}
		for f := range a {
			if !b[f] {
				t.Fatalf("top set differs across orders: %v missing", f)
			}
		}
	}
}
