package main

import (
	"fmt"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans live in memory and are written
// out when the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's time origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Op     string `json:"op"`     // the fit, evaluation or request the span belongs to
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records the spans of one goroutine. Spans nest: begin opens a
// child of the innermost open span. A nil tracer records nothing, so the
// untraced path runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
	op    string
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, cur: -1} }

// setOp names the fit, evaluation or request the next spans belong to.
func (t *tracer) setOp(format string, args ...any) {
	if t != nil {
		t.op = fmt.Sprintf(format, args...)
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur, Op: t.op})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.cur = t.spans[i].Parent
}

// mergeSpans concatenates per-goroutine span lists, rebasing parent indices.
func mergeSpans(lists ...[]span) []span {
	var out []span
	for _, l := range lists {
		off := len(out)
		for _, s := range l {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// spanStats aggregates spans by name: call count, total duration and self
// time (duration minus the part covered by child spans).
type spanStats struct {
	count map[string]int
	total map[string]int64
	self  map[string]int64
}

func aggregate(spans []span) spanStats {
	st := spanStats{count: map[string]int{}, total: map[string]int64{}, self: map[string]int64{}}
	for _, s := range spans {
		st.count[s.Name]++
		st.total[s.Name] += s.dur()
		st.self[s.Name] += s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			st.self[spans[s.Parent].Name] -= s.dur()
		}
	}
	return st
}

// perCallMs is the mean duration of one call of the named span, in ms.
func (st spanStats) perCallMs(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return float64(st.total[name]) / float64(st.count[name]) / 1e6
}

// layerSelf sums the self time of every span whose name starts with
// "<layer>.".
func (st spanStats) layerSelf(layer string) int64 {
	var s int64
	for n, v := range st.self {
		if strings.HasPrefix(n, layer+".") {
			s += v
		}
	}
	return s
}
