package sim

// eventHeap is a binary min-heap of events ordered by (time, seq) — or, in a
// keyed engine (see sharded.go), by (time, lineage key). It is implemented
// directly on a slice (rather than via container/heap) to avoid
// interface-call overhead on the simulator's hottest path.
type eventHeap []event

// before reports whether a precedes b in dispatch order.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.key != nil && b.key != nil {
		return keyCmp(a.key, b.key) < 0
	}
	return a.seq < b.seq
}

// beats reports whether h's top event precedes o's top event — the shard
// merge comparison of a multi-heap engine. Both heaps must be non-empty.
// Heaps of one engine either all carry keys or none do, so the mixed case
// cannot arise within a merge.
func (h eventHeap) beats(o eventHeap) bool { return h[0].before(&o[0]) }

// push and pop sift a hole rather than swapping: each level moves one event
// instead of two, which matters because events hold pointers and every
// move pays the GC write barrier while marking is on.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h eventHeap) peek() event { return h[0] }

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // release references
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}
