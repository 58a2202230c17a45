package core

import (
	"testing"

	"laps/internal/afd"
	"laps/internal/packet"
	"laps/internal/sim"
)

// mockView is a hand-controlled npsim.View for unit-testing scheduler
// decisions without running a simulation.
type mockView struct {
	now  sim.Time
	qlen []int
	qcap int
	idle []sim.Time
}

func newMockView(cores int) *mockView {
	return &mockView{
		qlen: make([]int, cores),
		qcap: 32,
		idle: make([]sim.Time, cores),
	}
}

func (m *mockView) Now() sim.Time          { return m.now }
func (m *mockView) NumCores() int          { return len(m.qlen) }
func (m *mockView) QueueLen(c int) int     { return m.qlen[c] }
func (m *mockView) QueueCap() int          { return m.qcap }
func (m *mockView) IdleFor(c int) sim.Time { return m.idle[c] }

func testLAPS() *LAPS {
	return New(Config{
		TotalCores: 16,
		Services:   4,
		AFD:        afd.Config{AFCSize: 4, AnnexSize: 32, PromoteThreshold: 2},
	})
}

func pkt(svc packet.ServiceID, flow int) *packet.Packet {
	return &packet.Packet{
		Flow:    packet.FlowKey{SrcIP: uint32(flow), DstPort: 443, Proto: 6},
		Service: svc,
		Size:    64,
	}
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{TotalCores: 16, Services: 0},
		{TotalCores: 2, Services: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestInitialPartitionEqual(t *testing.T) {
	l := testLAPS()
	seen := map[int]bool{}
	for s := 0; s < 4; s++ {
		cores := l.CoresOf(packet.ServiceID(s))
		if len(cores) != 4 {
			t.Fatalf("service %d has %d cores, want 4", s, len(cores))
		}
		for _, c := range cores {
			if seen[c] {
				t.Fatalf("core %d allocated twice", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != 16 {
		t.Fatalf("only %d cores allocated", len(seen))
	}
}

func TestUnevenPartition(t *testing.T) {
	l := New(Config{TotalCores: 10, Services: 4})
	total := 0
	for s := 0; s < 4; s++ {
		n := len(l.CoresOf(packet.ServiceID(s)))
		if n < 2 || n > 3 {
			t.Fatalf("service %d has %d cores, want 2 or 3", s, n)
		}
		total += n
	}
	if total != 10 {
		t.Fatalf("total allocated %d, want 10", total)
	}
}

func TestFlowAffinity(t *testing.T) {
	l := testLAPS()
	v := newMockView(16)
	first := l.Target(pkt(packet.SvcIPForward, 7), v)
	for i := 0; i < 20; i++ {
		v.now += sim.Microsecond
		if got := l.Target(pkt(packet.SvcIPForward, 7), v); got != first {
			t.Fatalf("flow moved from core %d to %d without overload", first, got)
		}
	}
}

func TestServiceIsolation(t *testing.T) {
	l := testLAPS()
	v := newMockView(16)
	for s := 0; s < 4; s++ {
		owned := map[int]bool{}
		for _, c := range l.CoresOf(packet.ServiceID(s)) {
			owned[c] = true
		}
		for f := 0; f < 200; f++ {
			if got := l.Target(pkt(packet.ServiceID(s), 1000*s+f), v); !owned[got] {
				t.Fatalf("service %d packet landed on foreign core %d", s, got)
			}
		}
	}
}

// train drives a flow through Target until its AFD promotes it.
func train(l *LAPS, v *mockView, svc packet.ServiceID, flow, times int) {
	for i := 0; i < times; i++ {
		l.Target(pkt(svc, flow), v)
	}
}

func TestAggressiveFlowMigratesUnderOverload(t *testing.T) {
	l := testLAPS()
	v := newMockView(16)
	const flow = 42
	train(l, v, packet.SvcIPForward, flow, 5) // exceeds threshold 2 → in AFC
	if !l.Detector(packet.SvcIPForward).IsAggressive(pkt(packet.SvcIPForward, flow).Flow) {
		t.Fatal("setup: flow not aggressive after training")
	}
	home := l.Target(pkt(packet.SvcIPForward, flow), v)

	// Overload the home core; leave the rest of the service lightly loaded.
	v.qlen[home] = 30
	cores := l.CoresOf(packet.SvcIPForward)
	got := l.Target(pkt(packet.SvcIPForward, flow), v)
	if got == home {
		t.Fatal("aggressive flow not migrated off overloaded core")
	}
	ownedBy := map[int]bool{}
	for _, c := range cores {
		ownedBy[c] = true
	}
	if !ownedBy[got] {
		t.Fatalf("flow migrated to foreign core %d", got)
	}
	if l.Stats().Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", l.Stats().Migrations)
	}
	// The migration table must keep the flow there even after load drops.
	v.qlen[home] = 0
	if again := l.Target(pkt(packet.SvcIPForward, flow), v); again != got {
		t.Fatalf("migrated flow bounced back to %d", again)
	}
	// And the AFC entry was invalidated (Listing 1 line 8).
	if l.Detector(packet.SvcIPForward).IsAggressive(pkt(packet.SvcIPForward, flow).Flow) {
		t.Fatal("flow still in AFC after migration")
	}
}

func TestNonAggressiveFlowStaysUnderOverload(t *testing.T) {
	l := testLAPS()
	v := newMockView(16)
	const flow = 42
	home := l.Target(pkt(packet.SvcIPForward, flow), v) // single observation: not aggressive
	v.qlen[home] = 30
	if got := l.Target(pkt(packet.SvcIPForward, flow), v); got != home {
		t.Fatalf("non-aggressive flow migrated to %d", got)
	}
	if l.Stats().Migrations != 0 {
		t.Fatal("migration counted for non-aggressive flow")
	}
}

func TestRequestCoreGrantsLongestMarkedSurplus(t *testing.T) {
	l := New(Config{
		TotalCores:   8,
		Services:     2,
		IdleThresh:   10 * sim.Microsecond,
		ScanInterval: sim.Microsecond,
		AFD:          afd.Config{AFCSize: 4, AnnexSize: 32, PromoteThreshold: 2},
	})
	v := newMockView(8)
	// Service 1's cores (4..7) idle long enough to be marked surplus.
	for c := 4; c < 8; c++ {
		v.idle[c] = 50 * sim.Microsecond
	}
	v.idle[5] = 90 * sim.Microsecond // not relevant: marking time is scan time
	v.now = sim.Microsecond
	l.Target(pkt(0, 1), v) // triggers scan → marks 4..7 surplus
	if l.SurplusCount() != 4 {
		t.Fatalf("surplus = %d, want 4", l.SurplusCount())
	}

	// Now overload every service-0 core.
	for _, c := range l.CoresOf(0) {
		v.qlen[c] = 32
	}
	before := len(l.CoresOf(0))
	l.Target(pkt(0, 2), v)
	after := l.CoresOf(0)
	if len(after) != before+1 {
		t.Fatalf("service 0 has %d cores after request, want %d", len(after), before+1)
	}
	if got := len(l.CoresOf(1)); got != 3 {
		t.Fatalf("donor has %d cores, want 3", got)
	}
	st := l.Stats()
	if st.CoreRequests != 1 || st.CoreGrants != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The granted core belonged to service 1 (IDs 4..7).
	granted := after[len(after)-1]
	if granted < 4 {
		t.Fatalf("granted core %d did not come from the donor", granted)
	}
}

func TestRequestCoreDeniedWithoutSurplus(t *testing.T) {
	l := testLAPS()
	v := newMockView(16)
	for c := range v.qlen {
		v.qlen[c] = 32 // everything overloaded, nothing surplus
	}
	l.Target(pkt(0, 1), v)
	st := l.Stats()
	if st.CoreRequests != 1 || st.CoreGrants != 0 || st.CoreDenied != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(l.CoresOf(0)) != 4 {
		t.Fatal("allocation changed despite denial")
	}
}

func TestDonorNeverLosesLastCore(t *testing.T) {
	l := New(Config{
		TotalCores:   3,
		Services:     2,
		IdleThresh:   sim.Microsecond,
		ScanInterval: sim.Microsecond,
	})
	v := newMockView(3)
	// Service 0: cores 0,1. Service 1: core 2. Mark everything idle.
	for c := 0; c < 3; c++ {
		v.idle[c] = 10 * sim.Microsecond
	}
	v.now = sim.Microsecond
	l.Target(pkt(0, 1), v) // scan
	// Core 2 is service 1's only core: it must not be marked surplus.
	for _, e := range l.surplus {
		if e.core == 2 {
			t.Fatal("single-core service marked its core surplus")
		}
	}
	// Overload service 1's core and request: only service 0 can donate.
	v.qlen[2] = 32
	v.idle[2] = 0
	v.now += 10 * sim.Microsecond
	l.Target(pkt(1, 9), v)
	if got := len(l.CoresOf(1)); got != 2 {
		t.Fatalf("service 1 has %d cores, want 2 after grant", got)
	}
	if got := len(l.CoresOf(0)); got != 1 {
		t.Fatalf("service 0 has %d cores, want 1 after donating", got)
	}
}

func TestSurplusUnmarkedWhenBusyAgain(t *testing.T) {
	l := New(Config{
		TotalCores:   4,
		Services:     2,
		IdleThresh:   10 * sim.Microsecond,
		ScanInterval: sim.Microsecond,
	})
	v := newMockView(4)
	v.idle[3] = 20 * sim.Microsecond
	v.now = sim.Microsecond
	l.Target(pkt(0, 1), v)
	if l.SurplusCount() != 1 {
		t.Fatalf("surplus = %d, want 1", l.SurplusCount())
	}
	// Core 3 gets traffic again.
	v.idle[3] = 0
	v.now += 5 * sim.Microsecond
	l.Target(pkt(0, 2), v)
	if l.SurplusCount() != 0 {
		t.Fatalf("surplus = %d after unmark, want 0", l.SurplusCount())
	}
	if l.Stats().SurplusUnmarks != 1 {
		t.Fatal("unmark not counted")
	}
}

func TestPartitionInvariantUnderReallocation(t *testing.T) {
	// Property: after arbitrary grant sequences, every core is owned by
	// exactly one service and bucket lists match hash table sizes.
	l := New(Config{
		TotalCores:   12,
		Services:     3,
		IdleThresh:   sim.Microsecond,
		ScanInterval: sim.Microsecond,
		AFD:          afd.Config{AFCSize: 4, AnnexSize: 32, PromoteThreshold: 2},
	})
	v := newMockView(12)
	for round := 0; round < 50; round++ {
		v.now += 2 * sim.Microsecond
		overloaded := round % 3
		for c := 0; c < 12; c++ {
			v.qlen[c] = 0
			v.idle[c] = 30 * sim.Microsecond
		}
		for _, c := range l.CoresOf(packet.ServiceID(overloaded)) {
			v.qlen[c] = 32
			v.idle[c] = 0
		}
		l.Target(pkt(packet.ServiceID(overloaded), round), v)

		seen := map[int]bool{}
		total := 0
		for s := 0; s < 3; s++ {
			cores := l.CoresOf(packet.ServiceID(s))
			if len(cores) == 0 {
				t.Fatalf("round %d: service %d has no cores", round, s)
			}
			st := l.svc[s]
			if st.lh.Buckets() != len(cores) {
				t.Fatalf("round %d: service %d hash buckets %d != cores %d",
					round, s, st.lh.Buckets(), len(cores))
			}
			for _, c := range cores {
				if seen[c] {
					t.Fatalf("round %d: core %d double-owned", round, c)
				}
				seen[c] = true
				if l.owner[c] != s {
					t.Fatalf("round %d: owner[%d] = %d, want %d", round, c, l.owner[c], s)
				}
				total++
			}
		}
		if total != 12 {
			t.Fatalf("round %d: %d cores owned, want 12", round, total)
		}
	}
	if l.Stats().CoreGrants == 0 {
		t.Fatal("stress never exercised a grant")
	}
}

func TestTargetAlwaysWithinService(t *testing.T) {
	// Even mid-reallocation the returned core must belong to the
	// packet's service.
	l := New(Config{
		TotalCores:   8,
		Services:     2,
		IdleThresh:   sim.Microsecond,
		ScanInterval: sim.Microsecond,
		AFD:          afd.Config{AFCSize: 4, AnnexSize: 32, PromoteThreshold: 2},
	})
	v := newMockView(8)
	for round := 0; round < 200; round++ {
		v.now += sim.Microsecond
		svc := packet.ServiceID(round % 2)
		for c := 0; c < 8; c++ {
			v.qlen[c] = (round * (c + 1)) % 33
			v.idle[c] = sim.Time(round%7) * 10 * sim.Microsecond
		}
		got := l.Target(pkt(svc, round%13), v)
		found := false
		for _, c := range l.CoresOf(svc) {
			if c == got {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("round %d: target %d outside service %d cores %v",
				round, got, svc, l.CoresOf(svc))
		}
	}
}

func TestUnknownServicePanics(t *testing.T) {
	l := New(Config{TotalCores: 4, Services: 2})
	v := newMockView(4)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown service did not panic")
		}
	}()
	l.Target(pkt(3, 1), v)
}

func TestName(t *testing.T) {
	if testLAPS().Name() != "laps" {
		t.Fatal("name mismatch")
	}
}

func BenchmarkLAPSTargetWarm(b *testing.B) {
	l := testLAPS()
	v := newMockView(16)
	p := pkt(packet.SvcIPForward, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Target(p, v)
	}
}

func BenchmarkLAPSTargetManyFlows(b *testing.B) {
	l := testLAPS()
	v := newMockView(16)
	pkts := make([]*packet.Packet, 1024)
	for i := range pkts {
		pkts[i] = pkt(packet.ServiceID(i%4), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Target(pkts[i&1023], v)
	}
}
