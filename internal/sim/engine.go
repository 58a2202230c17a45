// Package sim provides a small deterministic discrete-event simulation
// engine. It is the substrate on which the network-processor model runs:
// packet arrivals, core completions and timers are all events scheduled
// on a single logical clock with nanosecond resolution.
//
// The engine is intentionally single-threaded: determinism (identical
// event order for identical seeds) is a hard requirement for reproducing
// the paper's experiments. Parallelism in this repository happens one
// level up, by running independent simulations concurrently.
package sim

import (
	"fmt"
)

// Time is a point on the simulation clock, in nanoseconds.
// It is a distinct type from time.Duration to make it impossible to
// accidentally mix wall-clock and simulated time.
type Time int64

// Convenient unit constants for constructing Times.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is a scheduled callback. seq breaks ties among events with equal
// timestamps so that scheduling order is FIFO and fully deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap of event values ordered by
// (at, seq). container/heap is deliberately not used: its interface{}
// Push/Pop would box every event, costing one heap allocation per
// scheduled event on the simulator's hottest path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and restores the heap invariant (sift-up).
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event (sift-down).
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // release the closure for GC
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s.less(r, l) {
			min = r
		}
		if !s.less(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is not ready to
// use; construct with NewEngine.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	e := &Engine{}
	e.events = make(eventHeap, 0, 1024)
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run when the clock reaches t. Scheduling into the
// past panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Run dispatches events in timestamp order until no events remain. It
// returns the number of events processed by this call.
func (e *Engine) Run() uint64 {
	return e.run(-1)
}

// RunUntil dispatches events with timestamps <= limit, then advances the
// clock to limit. Events scheduled beyond limit remain pending.
func (e *Engine) RunUntil(limit Time) uint64 {
	n := e.run(limit)
	if e.now < limit {
		e.now = limit
	}
	return n
}

func (e *Engine) run(limit Time) uint64 {
	var n uint64
	for len(e.events) > 0 {
		if limit >= 0 && e.events[0].at > limit {
			break
		}
		ev := e.events.pop()
		e.now = ev.at
		ev.fn()
		n++
	}
	return n
}
