package core

import (
	"testing"

	"laps/internal/afd"
	"laps/internal/packet"
	"laps/internal/sim"
)

func consolidatingLAPS(cores int) *LAPS {
	return New(Config{
		TotalCores:   cores,
		Services:     1,
		Consolidate:  true,
		ScanInterval: sim.Microsecond,
		AFD:          afd.Config{AFCSize: 4, AnnexSize: 32, PromoteThreshold: 2},
	})
}

// calmScans drives enough scans with empty queues to trigger parking.
func calmScans(l *LAPS, v *mockView, n int) {
	for i := 0; i < n; i++ {
		v.now += 2 * sim.Microsecond
		l.Target(pkt(0, i%5), v)
	}
}

func TestConsolidateParksIdleCores(t *testing.T) {
	l := consolidatingLAPS(8)
	v := newMockView(8)
	calmScans(l, v, 100)
	if got := l.Stats().Parks; got == 0 {
		t.Fatal("no cores parked despite empty queues")
	}
	active := len(l.CoresOf(0))
	parked := len(l.svc[0].parked)
	if active+parked != 8 {
		t.Fatalf("active %d + parked %d != 8", active, parked)
	}
	if active < 1 {
		t.Fatal("service consolidated below one core")
	}
	// Hash table must track the active list.
	if l.svc[0].lh.Buckets() != active {
		t.Fatalf("hash buckets %d != active cores %d", l.svc[0].lh.Buckets(), active)
	}
}

func TestConsolidateTargetsOnlyActiveCores(t *testing.T) {
	l := consolidatingLAPS(8)
	v := newMockView(8)
	calmScans(l, v, 200)
	activeSet := map[int]bool{}
	for _, c := range l.CoresOf(0) {
		activeSet[c] = true
	}
	if len(activeSet) == 8 {
		t.Skip("nothing parked (unexpected)")
	}
	for f := 0; f < 300; f++ {
		if got := l.Target(pkt(0, f), v); !activeSet[got] {
			t.Fatalf("packet routed to parked core %d", got)
		}
	}
}

func TestConsolidateUnparksUnderPressure(t *testing.T) {
	l := consolidatingLAPS(8)
	v := newMockView(8)
	calmScans(l, v, 200)
	if len(l.svc[0].parked) == 0 {
		t.Fatal("setup: nothing parked")
	}
	// Saturate every active core: the overload path must unpark before
	// requesting foreign cores.
	for _, c := range l.CoresOf(0) {
		v.qlen[c] = 32
	}
	v.now += 2 * sim.Microsecond
	l.Target(pkt(0, 99), v)
	if l.Stats().Unparks == 0 {
		t.Fatal("no unpark under pressure")
	}
	if len(l.CoresOf(0))+len(l.svc[0].parked) != 8 {
		t.Fatal("core leaked during unpark")
	}
}

func TestConsolidatePressureViaScanUnparks(t *testing.T) {
	l := consolidatingLAPS(8)
	v := newMockView(8)
	calmScans(l, v, 200)
	parked := len(l.svc[0].parked)
	if parked == 0 {
		t.Fatal("setup: nothing parked")
	}
	// One active core's queue crosses the high threshold: the next scan
	// unparks even though not every core is saturated.
	v.qlen[l.CoresOf(0)[0]] = 30
	v.now += 2 * sim.Microsecond
	l.Target(pkt(0, 7), v)
	if len(l.svc[0].parked) >= parked {
		t.Fatalf("parked count %d did not shrink under queue pressure", len(l.svc[0].parked))
	}
}

func TestParkedCoreDonatedToOtherService(t *testing.T) {
	l := New(Config{
		TotalCores:   8,
		Services:     2,
		Consolidate:  true,
		IdleThresh:   5 * sim.Microsecond,
		ScanInterval: sim.Microsecond,
		AFD:          afd.Config{AFCSize: 4, AnnexSize: 32, PromoteThreshold: 2},
	})
	v := newMockView(8)
	// Service 0 calm → parks cores; parked cores idle → surplus.
	for i := 0; i < 300; i++ {
		v.now += 2 * sim.Microsecond
		for c := 0; c < 8; c++ {
			v.idle[c] += 2 * sim.Microsecond
		}
		l.Target(pkt(0, i%5), v)
	}
	if len(l.svc[0].parked) == 0 {
		t.Fatal("setup: service 0 parked nothing")
	}
	// Service 1 saturates and requests: it must receive a core (possibly
	// a parked one) without panicking or breaking the partition.
	for _, c := range l.CoresOf(1) {
		v.qlen[c] = 32
		v.idle[c] = 0
	}
	before := len(l.CoresOf(1))
	v.now += 2 * sim.Microsecond
	l.Target(pkt(1, 999), v)
	if len(l.CoresOf(1)) != before+1 {
		t.Fatalf("service 1 cores %d, want %d", len(l.CoresOf(1)), before+1)
	}
	// Ownership bookkeeping must stay consistent.
	total := 0
	for s := 0; s < 2; s++ {
		total += len(l.CoresOf(packet.ServiceID(s))) + len(l.svc[packet.ServiceID(s)].parked)
	}
	if total != 8 {
		t.Fatalf("cores owned %d, want 8", total)
	}
}

func TestConsolidateNeverParksLastCore(t *testing.T) {
	l := New(Config{
		TotalCores:   2,
		Services:     2,
		Consolidate:  true,
		ScanInterval: sim.Microsecond,
	})
	v := newMockView(2)
	for i := 0; i < 300; i++ {
		v.now += 2 * sim.Microsecond
		l.Target(pkt(0, i), v)
	}
	if len(l.CoresOf(0)) != 1 || len(l.CoresOf(1)) != 1 {
		t.Fatalf("single-core services changed: %v / %v", l.CoresOf(0), l.CoresOf(1))
	}
	if l.Stats().Parks != 0 {
		t.Fatal("parked a service's only core")
	}
}

func TestConsolidateDisabledByDefault(t *testing.T) {
	l := New(Config{TotalCores: 8, Services: 1, ScanInterval: sim.Microsecond})
	v := newMockView(8)
	for i := 0; i < 300; i++ {
		v.now += 2 * sim.Microsecond
		l.Target(pkt(0, i%5), v)
	}
	if l.Stats().Parks != 0 {
		t.Fatal("consolidation ran without being enabled")
	}
}
