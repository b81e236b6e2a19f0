package main

import (
	"sort"
	"time"

	"contsteal/internal/obs"
)

// span is one timed call into a layer, recorded from outside the program.
// Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the part its children cover
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so timed runs share the layer-level code at no cost.
type recorder struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: r.top(), Name: name, Run: r.run, Start: r.now(), End: -1})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("perfbench: spans closed out of order")
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = r.now()
}

func (r *recorder) top() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// add records a span that already ended, reported by a hook the program
// calls with the span's wall duration. Its parent is the innermost open
// span; earlier siblings that lie inside it become its children, since a
// hook reports an enclosing call after the calls it encloses.
func (r *recorder) add(name string, wall time.Duration) {
	if r == nil {
		return
	}
	end := r.now()
	parent := r.top()
	start := max(end-int64(wall), 0)
	if parent >= 0 {
		start = max(start, r.spans[parent].Start)
	}
	id := len(r.spans)
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent == parent && s.End >= 0 && s.Start >= start && s.End <= end {
			s.Parent = id
		}
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Run: r.run, Start: start, End: end})
}

// finish computes every span's self time: its duration minus the union of
// its children's intervals, clipped to its own.
func (r *recorder) finish() []span {
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.Self = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return r.spans
}

// covered returns how much of [start, end) the intervals of cs cover.
func covered(start, end int64, cs []span) int64 {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total int64
	cur := start
	for _, c := range cs {
		lo, hi := max(c.Start, cur), min(c.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// sum adds up the duration and self time of the spans called name that
// lie under span under (any depth).
func sum(spans []span, under int, name string) (dur, self time.Duration) {
	for _, s := range spans {
		if s.Name == name && descends(spans, s.ID, under) {
			dur += time.Duration(s.dur())
			self += time.Duration(s.Self)
		}
	}
	return dur, self
}

func descends(spans []span, id, anc int) bool {
	for p := spans[id].Parent; p >= 0; p = spans[p].Parent {
		if p == anc {
			return true
		}
	}
	return false
}

// countTracer is an obs.Tracer that only counts events per layer.
type countTracer struct {
	byLayer map[string]uint64
	seq     int64
}

func newCountTracer() *countTracer { return &countTracer{byLayer: map[string]uint64{}} }

func (c *countTracer) Event(e obs.Event) { c.byLayer[e.Kind.Layer()]++ }

func (c *countTracer) Seq() int64 { c.seq++; return c.seq }
