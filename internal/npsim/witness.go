package npsim

import (
	"laps/internal/flowtab"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/sketch"
)

// witness is a budgeted ReorderTracker past its budget: exact
// watermarks for a bounded set of flows instead of every flow. Two
// groups of flows are resident:
//
//   - the control group: flows whose witness hash is at or below
//     ^0 >> level (InControlGroup), a 2^-level sample of all flows drawn
//     independently of the CRC16 that places them. It catches a
//     reordering nobody announced.
//   - the sensitive group: flows the caller moved (MarkMoved), whatever
//     their hash. If the migration fence is right, only these flows can
//     reorder at all.
//
// A resident flow's verdicts are exact from the moment it became
// resident, so the witness has no false positives; what it does not see
// it does not count. The table holds a fixed capacity of flows; a full
// table evicts the oldest resident that has not departed within the
// last capacity's worth of witnessed departures (FIFO with a second
// chance), or the oldest outright when every resident has. The level
// rises on evidence that the live sample outgrew the table: a
// control-group flow that misses the table past its first packet
// (FlowSeq > 0) lost its watermark to an eviction, and when more than
// a quarter of a table's worth of control-group records are such
// losses, the control group is halved (level+1). A flow that ended
// costs nothing, so the level follows the number of flows live at once,
// not the number ever seen.
type witness struct {
	tab *flowtab.Table[witnessEntry]
	// queue holds the residents, oldest first from head, circularly;
	// len(queue) is the capacity and tab.Len() the occupancy. Entries
	// carry the table hash (the low 16 bits of the witness hash: a
	// tracker shard's flows share CRC16 residues, which would crowd its
	// table onto a fraction of the home slots).
	queue []fifoEntry
	spare []fifoEntry // raise's compaction target, swapped with queue
	head  int

	level     int
	threshold uint64 // ^0 >> level
	clock     uint64 // witnessed departures, the recency reference
	moved     int    // residents in the sensitive group
	evicted   uint64

	// The level's evidence since it was last judged: control-group
	// records, and how many of them found their watermark lost.
	tally, lost int
}

// witnessEntry is one resident flow: its watermark since it became
// resident, when it last departed (in witnessed departures), and which
// group keeps it.
type witnessEntry struct {
	next  uint64
	t     sim.Time
	at    uint64
	moved bool
}

// fifoEntry is one queued resident with its table hash, so eviction
// never rehashes.
type fifoEntry struct {
	key  packet.FlowKey
	hash uint16
}

// witnessSeed keys the control-group hash.
const witnessSeed = 0x8CB92BA72F3D8DD7

// maxWitnessLevel is the sparsest control group: flows hashing to 0 or 1.
const maxWitnessLevel = 63

// witnessCap is the witness's capacity for a tracker's flow budget: a
// fixed sixteenth of it, never below 64 flows.
func witnessCap(budget int) int { return max(64, budget/16) }

func witnessHash(f *packet.FlowKey) uint64 { return sketch.KeyHash(f, witnessSeed) }

// InControlGroup reports whether flow f is in a reorder witness's
// control group at the given level. A level's group is a 2^-level
// sample of all flows and contains every higher level's group.
func InControlGroup(f packet.FlowKey, level int) bool {
	return witnessHash(&f) <= ^uint64(0)>>level
}

func newWitness(capacity int) *witness {
	return &witness{
		tab:       flowtab.New[witnessEntry](capacity),
		queue:     make([]fifoEntry, capacity),
		spare:     make([]fifoEntry, capacity),
		threshold: ^uint64(0),
	}
}

// ref returns the entry a departure of f with sequence number seq
// records against — f's resident entry, or a new one when f is in the
// control group — and stamps it recent; nil when f is not witnessed.
// An unsampled flow costs one hash and one compare, plus a probe while
// any flow is in the sensitive group.
func (w *witness) ref(f *packet.FlowKey, seq uint64) *witnessEntry {
	wh := witnessHash(f)
	sampled := wh <= w.threshold
	if !sampled && w.moved == 0 {
		return nil
	}
	e := w.tab.Lookup(*f, uint16(wh))
	switch {
	case e != nil:
		if sampled {
			w.tally++
		}
	case !sampled:
		return nil
	default:
		if e = w.admit(*f, wh, seq); e == nil {
			return nil
		}
	}
	w.clock++
	e.at = w.clock
	return e
}

// admit makes control-group flow f resident on a miss. Past the flow's
// first packet the miss is a lost watermark; once a table's worth of
// control-group records has gone by, more than a quarter of them lost
// means the live sample outgrew the table, and the level rises — after
// which f may have left the sample, and nil is returned.
func (w *witness) admit(f packet.FlowKey, wh, seq uint64) *witnessEntry {
	w.tally++
	if seq > 0 {
		w.lost++
	}
	if w.tally >= len(w.queue) {
		if 4*w.lost > w.tally && w.level < maxWitnessLevel {
			w.raise()
		}
		w.tally, w.lost = 0, 0
		if wh > w.threshold {
			return nil
		}
	}
	return w.insert(f, wh, false)
}

// seed takes a pre-switch exact watermark for f: into f's entry if it
// is resident (marked moved), or into a new one if f is in the control
// group. Every seeded flow counts as live, so while the table is full
// the level rises rather than evict one.
func (w *witness) seed(f packet.FlowKey, wm watermark) {
	wh := witnessHash(&f)
	e := w.tab.Lookup(f, uint16(wh))
	if e == nil {
		for wh <= w.threshold && w.tab.Len() == len(w.queue) && w.moved < w.tab.Len() && w.level < maxWitnessLevel {
			w.raise()
		}
		if wh > w.threshold {
			return
		}
		e = w.insert(f, wh, false)
	}
	e.next, e.t = wm.next, wm.t
}

// mark puts f in the sensitive group, resident with an empty watermark
// if it was not resident already.
func (w *witness) mark(f packet.FlowKey) {
	wh := witnessHash(&f)
	e := w.tab.Lookup(f, uint16(wh))
	if e == nil {
		w.insert(f, wh, true)
		return
	}
	if !e.moved {
		e.moved = true
		w.moved++
	}
	e.at = w.clock
}

// insert makes absent flow f resident with an empty watermark, making
// room first.
func (w *witness) insert(f packet.FlowKey, wh uint64, moved bool) *witnessEntry {
	if w.tab.Len() == len(w.queue) {
		w.makeRoom()
	}
	w.queue[(w.head+w.tab.Len())%len(w.queue)] = fifoEntry{key: f, hash: uint16(wh)}
	e := w.tab.Ref(f, uint16(wh))
	*e = witnessEntry{at: w.clock, moved: moved}
	if moved {
		w.moved++
	}
	return e
}

// makeRoom frees a slot of the full table. Recent residents at the head
// get a second chance at the tail (the queue is full, so that is just
// advancing head); the first one that is not recent is evicted, or,
// when all are, the oldest — the head again after a full turn.
func (w *witness) makeRoom() {
	n := len(w.queue)
	for range n {
		if q := w.queue[w.head]; w.clock-w.tab.Lookup(q.key, q.hash).at >= uint64(n) {
			break
		}
		w.head = (w.head + 1) % n
	}
	w.evict()
}

// evict drops the head resident.
func (w *witness) evict() {
	q := w.queue[w.head]
	if w.tab.Lookup(q.key, q.hash).moved {
		w.moved--
	}
	w.tab.Delete(q.key, q.hash)
	w.head = (w.head + 1) % len(w.queue)
	w.evicted++
}

// raise halves the control group and sweeps out the unmoved residents
// that fell out of it, keeping the rest in queue order.
func (w *witness) raise() {
	w.level++
	w.threshold = ^uint64(0) >> w.level
	n, kept := len(w.queue), 0
	for i, count := 0, w.tab.Len(); i < count; i++ {
		q := w.queue[(w.head+i)%n]
		if e := w.tab.Lookup(q.key, q.hash); !e.moved && witnessHash(&q.key) > w.threshold {
			w.tab.Delete(q.key, q.hash)
			continue
		}
		w.spare[kept] = q
		kept++
	}
	w.queue, w.spare = w.spare, w.queue
	w.head = 0
}

// reset forgets every resident and returns to the full control group.
func (w *witness) reset() {
	w.tab.Reset()
	w.head, w.level, w.threshold = 0, 0, ^uint64(0)
	w.clock, w.moved, w.evicted = 0, 0, 0
	w.tally, w.lost = 0, 0
}
