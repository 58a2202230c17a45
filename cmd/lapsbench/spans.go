package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"laps/internal/obs"
)

// Span names. The harness records a span around each of its own calls
// into a layer; spans inside the program are a later change.
const (
	spRep = iota
	spFill
	spDispatch
	spSend
	spStop
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"rep", "feeder.fill", "runtime.dispatch_burst", "ingress.send", "runtime.stop",
}

// span is one timed harness-side call: which call, the span that caused
// it, the burst it belongs to, and its start and end in ns since the
// tracer's epoch.
type span struct {
	name       uint8
	parent     int32
	burst      uint32
	start, end int64
}

// tracer keeps spans in a preallocated buffer and per-name totals. Once
// the buffer is full a span still adds to the totals (the per-layer
// metrics need every one) but is no longer kept for the trace file. A
// nil tracer records nothing, so the timed repetitions pay one branch.
type tracer struct {
	epoch time.Time
	spans []span
	sum   [numSpanNames]int64
	count [numSpanNames]int64
}

// maxSpans bounds the trace file: 1<<16 spans render to about 8 MB of
// Chrome-trace JSON, the first ~30k bursts of the traced repetition.
const maxSpans = 1 << 16

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin returns the start stamp for a span about to open.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// end closes a span opened at start and returns its index (-1 when it
// was only totalled), which a child span names as its parent.
func (t *tracer) end(name int, parent int32, burst int, start int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.sum[name] += now - start
	t.count[name]++
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{uint8(name), parent, uint32(burst), start, now})
	return int32(len(t.spans) - 1)
}

// open reserves a span whose children close before it does (the
// repetition); close fills in its end.
func (t *tracer) open(name int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: uint8(name), parent: -1, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = int64(time.Since(t.epoch))
	t.sum[s.name] += s.end - s.start
	t.count[s.name]++
}

func (t *tracer) total(name int) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.sum[name])
}

// writeTrace writes the traced repetition's trace file: the harness
// spans of a live workload, or — for sim_t5, which the harness calls
// once — the simulator's own control-plane event stream.
func (o *repOut) writeTrace(path string) error {
	if o.tracer != nil {
		return o.tracer.writeChrome(path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewChromeTraceSink(f)
	err = o.events.Drain(sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeChrome writes the kept spans in the Trace Event Format
// (chrome://tracing, ui.perfetto.dev): complete events, µs timestamps,
// one row per span name, parent and burst id in args.
func (t *tracer) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		parent := ""
		if s.parent >= 0 {
			parent = spanNames[t.spans[s.parent].name]
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%q,"parent_id":%d,"burst":%d}}`,
			spanNames[s.name], s.name+1, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, parent, s.parent, s.burst)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
