package main

import (
	"sort"
	"time"
)

// span is one timed interval at a layer boundary: what ran, the span
// that caused it, the step or request it belongs to, and the lane
// (rank, worker or client) it ran on.
type span struct {
	Name       string
	Parent     int // index into the recorder's spans; -1 for a root
	ID         int64
	Lane       int
	Start, End time.Duration // since the recorder started
}

// spanRecorder keeps spans in memory until the run ends. It records
// from the benchmark's own files, around the calls into each layer;
// a nil recorder is the recorder switched off, and every method is a
// no-op on it, so the untraced run pays one nil check per boundary.
// Spans are appended from one goroutine at a time (the step loop, or
// the post-run walk over request traces), so it takes no lock.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span now; end closes it.
func (r *spanRecorder) begin(name string, parent int, id int64) int {
	return r.beginAt(name, parent, id, time.Now())
}

// beginAt opens a span that started at an earlier instant (a step
// starts when its wait for data starts, before the batch arrives).
func (r *spanRecorder) beginAt(name string, parent int, id int64, start time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, ID: id, Start: start.Sub(r.t0), End: -1})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = time.Since(r.t0)
}

// add records a finished span from its two instants.
func (r *spanRecorder) add(name string, parent int, id int64, lane int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, ID: id, Lane: lane,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return len(r.spans) - 1
}

// selfTimes returns each span's duration minus the part of it its
// child spans cover.
func (r *spanRecorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans, with their self times, as Chrome
// trace-event JSON.
func (r *spanRecorder) writeChrome(path string) error {
	self := r.selfTimes()
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "span": i, "parent": s.Parent,
				"self_us": float64(self[i]) / float64(time.Microsecond)},
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Ts < events[b].Ts })
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
