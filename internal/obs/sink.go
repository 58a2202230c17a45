package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Sink consumes a stream of events. Sinks are pluggable: the Recorder
// drains into any implementation (JSONL, Chrome trace, test collectors).
type Sink interface {
	// Write consumes one event. Events arrive oldest first.
	Write(e Event) error
	// Close finalises the output (flushes buffers, closes JSON arrays).
	Close() error
}

// JSONLSink writes one JSON object per event, one per line — the
// grep/jq-friendly export format. Schema (docs/OBSERVABILITY.md):
//
//	{"t":12345,"kind":"migration","svc":0,"core":3,"core2":7,"val":24,"flow":"10.0.0.1:80->10.0.0.2:8080/6"}
//
// t is the simulation timestamp in nanoseconds; "flow" is present only
// for kinds that carry a flow identity.
type JSONLSink struct {
	w *bufio.Writer
}

// NewJSONLSink wraps w. The caller keeps ownership of w; Close flushes
// but does not close it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Write emits one event as a JSON line.
func (s *JSONLSink) Write(e Event) error {
	// Hand-rolled encoding: every field is numeric or drawn from fixed
	// vocabularies (kind names, dotted-quad flow strings), so no JSON
	// escaping can ever be needed.
	_, err := fmt.Fprintf(s.w, `{"t":%d,"kind":%q,"svc":%d,"core":%d,"core2":%d,"val":%d`,
		int64(e.T), e.Kind.String(), e.Service, e.Core, e.Core2, e.Val)
	if err != nil {
		return err
	}
	if e.Kind.HasFlow() {
		if _, err := fmt.Fprintf(s.w, `,"flow":%q`, e.Flow.String()); err != nil {
			return err
		}
	}
	_, err = s.w.WriteString("}\n")
	return err
}

// Close flushes buffered output.
func (s *JSONLSink) Close() error { return s.w.Flush() }

// ChromeTraceSink writes the Trace Event Format consumed by
// chrome://tracing and https://ui.perfetto.dev: a JSON object with a
// "traceEvents" array of instant events. Events are keyed by core ID —
// pid is the service, tid the core — so each core renders as its own
// timeline row grouped under its service. Timestamps are microseconds
// (the format's unit).
type ChromeTraceSink struct {
	w     *bufio.Writer
	first bool
	pids  map[int16]bool
}

// NewChromeTraceSink wraps w and writes the stream header immediately.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	s := &ChromeTraceSink{w: bufio.NewWriter(w), first: true, pids: make(map[int16]bool)}
	s.w.WriteString(`{"traceEvents":[`)
	return s
}

// Write emits one event as a trace record: span kinds (fence and
// recovery start/end pairs, see Kind.SpanPhase) become async begin/end
// events ("ph":"b"/"e") so migrations render as measurable intervals;
// everything else stays an instant ("ph":"i") record. Async events are
// matched by id — the flow identity for fences, the (worker, shard)
// pair for recoveries — so overlapping spans on one timeline row never
// collide.
func (s *ChromeTraceSink) Write(e Event) error {
	if !s.first {
		if err := s.w.WriteByte(','); err != nil {
			return err
		}
	}
	s.first = false
	s.pids[e.Service] = true
	if ph := e.Kind.SpanPhase(); ph != 0 {
		name, id := "fence", e.Flow.String()
		if e.Kind == EvRecoveryStart || e.Kind == EvRecoveryEnd {
			name = "recovery"
			id = fmt.Sprintf("w%d-s%d", e.Core, e.Core2)
		}
		phs := "b"
		if ph < 0 {
			phs = "e"
		}
		_, err := fmt.Fprintf(s.w,
			`{"name":%q,"cat":"laps-span","ph":%q,"id":%q,"ts":%.3f,"pid":%d,"tid":%d,"args":{"core2":%d,"val":%d}}`,
			name, phs, id, float64(e.T)/1e3, e.Service, e.Core, e.Core2, e.Val)
		return err
	}
	_, err := fmt.Fprintf(s.w,
		`{"name":%q,"cat":"laps","ph":"i","s":"t","ts":%.3f,"pid":%d,"tid":%d,"args":{"core2":%d,"val":%d`,
		e.Kind.String(), float64(e.T)/1e3, e.Service, e.Core, e.Core2, e.Val)
	if err != nil {
		return err
	}
	if e.Kind.HasFlow() {
		if _, err := fmt.Fprintf(s.w, `,"flow":%q`, e.Flow.String()); err != nil {
			return err
		}
	}
	_, err = s.w.WriteString(`}}`)
	return err
}

// Close appends process-name metadata for every service seen, closes the
// JSON document and flushes.
func (s *ChromeTraceSink) Close() error {
	pids := make([]int16, 0, len(s.pids))
	for pid := range s.pids {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		if !s.first {
			s.w.WriteByte(',')
		}
		s.first = false
		name := fmt.Sprintf("service %d", pid)
		if pid < 0 {
			name = "system"
		}
		fmt.Fprintf(s.w,
			`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, pid, name)
	}
	if _, err := s.w.WriteString(`],"displayTimeUnit":"ns"}`); err != nil {
		return err
	}
	return s.w.Flush()
}
