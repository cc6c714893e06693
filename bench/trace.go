package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"dynautosar/internal/sim"
)

// Spans are recorded only from this package, around the public seams
// between layers (choosing-metrics guide, section 4): nothing in the
// program under test knows it is traced. A nil *tracer records nothing,
// which is how the untraced runs share the workload code.

// span is one timed interval at a layer seam. Parent indexes the span
// that caused it (-1 for a root); Op is the operation id, vehicle or
// command index the span belongs to.
type span struct {
	Layer  string
	Name   string
	Op     string
	Parent int
	Start  time.Duration // since tracer.t0
	End    time.Duration
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	// virtual holds the vehicle-side spans, whose clock is the
	// simulation's: Start and End are microseconds of virtual time. The
	// simulation is single-threaded, so they need no lock; the list is
	// capped because a message workload would otherwise record millions.
	virtual []span
}

// maxVirtualSpans bounds the virtual-time spans one repetition keeps.
const maxVirtualSpans = 20000

// virtualSpan records one closed span in virtual time.
func (t *tracer) virtualSpan(layer, name string, start, end sim.Time) {
	if t == nil || len(t.virtual) >= maxVirtualSpans {
		return
	}
	t.virtual = append(t.virtual, span{Layer: layer, Name: name, Parent: -1,
		Start: time.Duration(start) * time.Microsecond, End: time.Duration(end) * time.Microsecond})
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index; -1 from a nil tracer.
func (t *tracer) begin(layer, name, op string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Op: op, Parent: parent, Start: now, End: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i and names its operation when op is non-empty (a
// create call learns its operation id only from the response).
func (t *tracer) end(i int, op string) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	if op != "" {
		t.spans[i].Op = op
	}
	t.mu.Unlock()
}

// spanKey carries the enclosing span's index through a context, so a
// wrapper further down the call chain can name its parent.
type spanKey struct{}

func withSpan(ctx context.Context, i int) context.Context {
	if i < 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, i)
}

func spanOf(ctx context.Context) int {
	if i, ok := ctx.Value(spanKey{}).(int); ok {
		return i
	}
	return -1
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			// Keep indexes stable for Parent links: an unclosed span
			// stays in place as an empty interval.
			s.End = s.Start
		}
		out = append(out, s)
	}
	return out
}

// mergeSpans concatenates the tracers' host-time spans into one list,
// moving each tracer's Parent links along with its spans.
func mergeSpans(tracers []*tracer) []span {
	var out []span
	for _, tr := range tracers {
		base := len(out)
		for _, s := range tr.snapshot() {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children may overlap (a router
// may fan out in parallel), so the covered part is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// durationsUS collects the durations, in microseconds, of the spans
// keep accepts; a non-nil self (from selfTimes) gives self times.
func durationsUS(spans []span, self []time.Duration, keep func(span) bool) []float64 {
	var out []float64
	for i, s := range spans {
		if !keep(s) {
			continue
		}
		d := s.End - s.Start
		if self != nil {
			d = self[i]
		}
		out = append(out, float64(d)/float64(time.Microsecond))
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event); ts and
// dur are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace process ids: host-time spans and virtual-time spans must not
// share a timeline.
const (
	pidHost    = 1
	pidVirtual = 2
)

// chromeEvents renders spans as trace events, one track per layer.
func chromeEvents(spans []span, pid int) []traceEvent {
	tids := map[string]int{}
	out := make([]traceEvent, 0, len(spans))
	for i, s := range spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
		}
		out = append(out, traceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: pid, TID: tid,
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent},
		})
	}
	return out
}

// writeChromeTrace writes the events as a Chrome trace-event file
// (chrome://tracing, Perfetto).
func writeChromeTrace(path string, events []traceEvent) error {
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
