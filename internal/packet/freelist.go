package packet

// poisonID marks a descriptor a poisoning FreeList has taken back. The
// traffic generator numbers packets from 1, so no live packet carries it.
const poisonID = ^uint64(0)

// poisonNew is what NewFreeList builds; only PoisonFreeLists writes it.
var poisonNew bool

// PoisonFreeLists is a test hook: while on, every list NewFreeList
// builds checks ownership instead of recycling. Put marks the
// descriptor, keeps it out of circulation for good and panics on one it
// has already taken, so whoever still holds a returned descriptor — or
// returns it a second time — is caught, not handed a reused one.
// Simulated results must not depend on the setting. It returns the
// function that restores the previous setting; tests that flip it must
// not run in parallel with other simulations.
func PoisonFreeLists(on bool) (restore func()) {
	prev := poisonNew
	poisonNew = on
	return func() { poisonNew = prev }
}

// Poisoned reports whether p was returned to a poisoning FreeList — the
// assertion for code that must never see a descriptor after its Put.
func Poisoned(p *Packet) bool { return p.ID == poisonID }

// FreeList recycles descriptors for the discrete-event simulator: a
// LIFO stack owned by the one goroutine that runs the sim engine. It
// holds what Pool's contract holds — Get returns a zeroed descriptor,
// nothing may keep a *Packet after Put — without the mutexes and the
// magazine exchange a single-threaded caller would only pay for. At
// most queue-capacity × cores descriptors are ever live, and LIFO reuse
// keeps that working set cache-resident.
//
// A nil *FreeList is valid: Get allocates, Put discards.
type FreeList struct {
	free   []*Packet
	poison bool
}

// NewFreeList returns an empty free list.
func NewFreeList() *FreeList { return &FreeList{poison: poisonNew} }

// Get returns a zeroed descriptor, the most recently returned one first.
func (fl *FreeList) Get() *Packet {
	if fl == nil || len(fl.free) == 0 {
		return new(Packet)
	}
	n := len(fl.free) - 1
	p := fl.free[n]
	fl.free[n] = nil
	fl.free = fl.free[:n]
	return p
}

// Put takes p back, zeroed. The caller must not retain any reference.
// Put(nil) is a no-op.
func (fl *FreeList) Put(p *Packet) {
	if fl == nil || p == nil {
		return
	}
	if fl.poison {
		if Poisoned(p) {
			panic("packet: descriptor returned to the free list twice")
		}
		*p = Packet{ID: poisonID}
		return
	}
	*p = Packet{}
	fl.free = append(fl.free, p)
}
