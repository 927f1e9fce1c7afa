package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one timed call into a layer. Spans of one placement share Trace;
// Parent is the ID of the enclosing span (0 for a placement's root span).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer records spans in memory; the traced replay is single-threaded, so
// spans nest strictly and a stack tracks the open ones.
type Tracer struct {
	now   func() time.Time
	epoch time.Time
	spans []Span
	open  []int // indices into spans of the currently open spans
	trace int
}

// NewTracer returns a tracer on the wall clock.
func NewTracer() *Tracer { return newTracerClock(time.Now) }

func newTracerClock(now func() time.Time) *Tracer {
	return &Tracer{now: now, epoch: now()}
}

// Root opens the root span of a new trace (one placement) and returns the
// function that closes it.
func (t *Tracer) Root(name string) func() {
	t.trace++
	return t.Begin(name)
}

// Begin opens a child of the innermost open span and returns the function
// that closes it. Spans must be closed in reverse order of opening.
func (t *Tracer) Begin(name string) func() {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name,
		Start: t.now().Sub(t.epoch),
	})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return func() {
		if n := len(t.open); n == 0 || t.open[n-1] != idx {
			panic(fmt.Sprintf("perfbench: span %q closed out of order", name))
		}
		t.spans[idx].End = t.now().Sub(t.epoch)
		t.open = t.open[:len(t.open)-1]
	}
}

// Spans returns the recorded spans in opening order.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteJSON writes every recorded span as one JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children. Children of one parent never
// overlap (the replay is sequential), so the covered part is the sum of
// their durations.
func selfTimes(spans []Span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.Dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.Dur()
		}
	}
	return self
}

// nameTotals sums, per span name, the inclusive duration, the self time and
// the number of spans.
type nameTotals struct {
	Total, Self time.Duration
	Calls       int
}

func totalsByName(spans []Span) map[string]nameTotals {
	self := selfTimes(spans)
	out := make(map[string]nameTotals)
	for _, s := range spans {
		nt := out[s.Name]
		nt.Total += s.Dur()
		nt.Self += self[s.ID]
		nt.Calls++
		out[s.Name] = nt
	}
	return out
}

// selfTimeLines formats self time per span name, largest first, with each
// name's share of all recorded time (the sum of every span's self time).
func selfTimeLines(spans []Span) []string {
	totals := totalsByName(spans)
	names := make([]string, 0, len(totals))
	var all time.Duration
	for name, nt := range totals {
		names = append(names, name)
		all += nt.Self
	}
	sort.Slice(names, func(i, j int) bool {
		if totals[names[i]].Self != totals[names[j]].Self {
			return totals[names[i]].Self > totals[names[j]].Self
		}
		return names[i] < names[j]
	})
	var lines []string
	for _, name := range names {
		nt := totals[name]
		share := 0.0
		if all > 0 {
			share = float64(nt.Self) / float64(all) * 100
		}
		lines = append(lines, fmt.Sprintf("self %-10s %9.4f s %5.1f%%  calls=%d  total=%.4f s",
			name, nt.Self.Seconds(), share, nt.Calls, nt.Total.Seconds()))
	}
	return lines
}
