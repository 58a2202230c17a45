package npsim

import (
	"testing"

	"laps/internal/packet"
	"laps/internal/sim"
)

// TestFreeListOwnership pins who returns a descriptor to System.Free: the
// system at both drop sites and at departure — except that an OnDepart
// consumer takes over the departed ones. A poisoning list marks what
// has been returned, so ownership reads straight off the packets.
func TestFreeListOwnership(t *testing.T) {
	defer packet.PoisonFreeLists(true)()
	for _, tc := range []struct {
		name             string
		shared           bool
		inject           int
		dropped, departs int
	}{
		{"per-core", false, 5, 2, 3}, // 1 in service + 2 queued fit
		{"shared", true, 9, 4, 5},    // 2 straight to cores, 3 queue
	} {
		for _, consumer := range []bool{false, true} {
			eng := sim.NewEngine()
			cfg := testConfig(1, 2)
			var sched Scheduler = pinSched(0)
			if tc.shared {
				cfg = testConfig(2, 2)
				cfg.SharedQueue, cfg.SharedQueueCap = true, 3
				sched = nil
			}
			s := New(eng, cfg, sched)
			s.Free = packet.NewFreeList()
			var departed []*packet.Packet
			if consumer {
				s.OnDepart = func(p *packet.Packet) { departed = append(departed, p) }
			}
			var all []*packet.Packet
			eng.At(0, func() {
				for i := 1; i <= tc.inject; i++ {
					p := s.Free.Get()
					*p = *mkPacket(uint64(i), i, 0, 0)
					all = append(all, p)
					s.Inject(p)
				}
			})
			eng.Run()

			returned := 0
			for _, p := range all {
				if packet.Poisoned(p) {
					returned++
				}
			}
			want := tc.dropped + tc.departs
			if consumer {
				want = tc.dropped
			}
			if returned != want {
				t.Errorf("%s consumer=%v: system returned %d descriptors, want %d", tc.name, consumer, returned, want)
			}
			if consumer && len(departed) != tc.departs {
				t.Errorf("%s: consumer saw %d departures, want %d", tc.name, len(departed), tc.departs)
			}
			for _, p := range departed {
				if packet.Poisoned(p) {
					t.Errorf("%s: system returned packet %d although OnDepart owns it", tc.name, p.ID)
				}
				s.Free.Put(p) // the consumer's Put must be the first
			}
		}
	}
}
