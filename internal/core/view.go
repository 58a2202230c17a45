package core

import (
	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/lhash"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/sim"
)

// ForwardingView is an immutable snapshot of LAPS's per-packet decision
// path: each service's map table (bucket list + linear-hash state) and
// migration-table overrides. It mirrors the paper's
// hardware split — the lookup tables a line-rate data plane consults
// versus the control processor that rewrites them — so the live
// runtime's dispatcher shards can resolve packet→core with zero locks
// while the real LAPS control loop keeps mutating the scheduler and
// publishing fresh views through an atomic pointer.
//
// A view is never mutated after construction; all methods are safe for
// unsynchronised concurrent use.
type ForwardingView struct {
	// Gen is the scheduler generation this view was built from.
	Gen uint64
	// Taken is the control-plane clock instant the snapshot was taken.
	Taken sim.Time

	svcs []svcForwarding
}

// svcForwarding is one service's frozen lookup state. mig is the
// migration table's shared snapshot (nil when there are no overrides —
// the common case — so the fast path skips the lookup entirely).
type svcForwarding struct {
	cores      []int // bucket index -> core ID
	m, buckets int   // linear-hash state (lhash.IndexIn)
	mig        *flowtab.Table[int32]
}

// Forward implements npsim.Forwarder: migration-table override first,
// then the incremental-hash map table — exactly the fast path of
// LAPS.Target, with every control-plane reaction (imbalance checks,
// steals, splits) left to the scheduler that published the view.
func (v *ForwardingView) Forward(p *packet.Packet) int {
	s := &v.svcs[p.Service]
	h := crc.PacketHash(p)
	if s.mig != nil {
		if c, ok := s.mig.Get(p.Flow, h); ok {
			return int(c)
		}
	}
	return s.cores[lhash.IndexIn(s.m, s.buckets, uint32(h))]
}

// Generation implements npsim.SnapshotProvider: a monotonic counter over
// every forwarding-relevant mutation — migration-table puts, expiries and
// purges (delegated to each table's own counter) plus map-table growth,
// shrinkage, parking and core steals (counted by the scheduler). AFC
// churn deliberately does not bump it: promotions change what the control
// plane may migrate next, not where any packet forwards now.
func (l *LAPS) Generation() uint64 {
	g := l.gen
	for _, st := range l.svc {
		g += st.mig.Generation()
	}
	return g
}

// Snapshot implements npsim.SnapshotProvider, freezing the decision path
// as of time now (migration entries past their TTL are excluded without
// being deleted, so snapshotting never mutates the scheduler).
func (l *LAPS) Snapshot(now sim.Time) npsim.Forwarder {
	v := &ForwardingView{Gen: l.Generation(), Taken: now,
		svcs: make([]svcForwarding, len(l.svc))}
	for i, st := range l.svc {
		sf := &v.svcs[i]
		sf.cores = append([]int(nil), st.cores...)
		sf.m, sf.buckets = st.lh.Base(), st.lh.Buckets()
		sf.mig = st.mig.Snapshot(now) // shared with the table's cache; read-only
	}
	return v
}
