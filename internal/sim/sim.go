// Package sim implements a deterministic, process-oriented discrete-event
// simulator (DES). It is the substrate on which the whole repository runs:
// simulated cluster workers, user-level threads, and network operations are
// all simulated processes ("procs") advancing a shared virtual clock.
//
// # Model
//
// An Engine owns a virtual clock and a priority queue of events. A Proc is a
// goroutine that runs only when it is handed control; at any instant at most
// one goroutine — a proc, or the Run caller — holds control, so a simulation
// is fully sequential and deterministic: two runs with the same inputs produce
// the same event order, the same virtual timestamps, and the same results,
// regardless of GOMAXPROCS.
//
// Procs interact with virtual time through three primitives:
//
//   - Sleep(d): suspend for d nanoseconds of virtual time.
//   - Park(): suspend until some other proc (or callback) calls Wake.
//   - Wake(p)/WakeAfter(p, d): make a parked proc runnable (now or later).
//
// The engine additionally supports plain callback events via At/After, which
// run inline in the dispatch loop of whichever goroutine holds control.
//
// # Determinism
//
// Events are ordered by (virtual time, sequence number); the sequence number
// is assigned when the event is scheduled, so simultaneous events fire in
// scheduling order (FIFO). No real time, map iteration order, or goroutine
// scheduling decision can influence the simulation.
//
// # Completion chains
//
// A Chain is the split-phase counterpart of a sequence of Sleeps: a state
// machine of timed callbacks that runs entirely in the dispatch loop,
// waking the issuing proc exactly once at the end. A multi-step protocol
// (e.g. the five one-sided operations of a deque steal) issues its first
// link, each link's callback performs its memory access and schedules the
// next, the final link calls Complete, and the proc — parked in Wait —
// resumes within the same event dispatch, at the same (time, seq) instant at
// which a blocking implementation would have returned from its last Sleep.
// Each link consumes exactly one event and one sequence number, assigned at
// the same scheduling instants as the Sleeps it replaces, so converting a
// blocking protocol to a chain changes no virtual-time result: event order,
// timestamps, and all derived statistics stay byte-identical. What changes
// is host cost — one goroutine handoff per protocol instead of one per
// sub-operation. Chain objects are pooled on the engine (Wait releases
// them), so steady-state chains allocate nothing.
//
// # Host performance
//
// The engine is two-tier: delay-only waits run as callbacks (a heap pop plus
// a function call, ~10 ns), while a proc dispatch hands control to another
// goroutine, which costs hundreds of nanoseconds. Control is passed like a
// baton: the goroutine that holds it — the Run caller, or the proc that just
// suspended or returned — runs the dispatch loop itself, executing callbacks
// inline until the next proc event. A proc resuming itself (its own wake,
// or a chain it issued completing) continues with no goroutine switch; a
// wake of another proc is one send on that proc's unbuffered channel, one
// switch; only the end of a run (empty queue, horizon, Stop, failure) goes
// back to the Run caller, through the engine's home channel. Hot paths also
// avoid dispatches altogether: multi-op protocols use completion chains (one
// dispatch per protocol), live procs are kept on an intrusive list (no map
// operations on spawn/death), proc names are formatted lazily (no fmt on the
// spawn path; see GoID), and events are plain values in a slice-backed heap
// (no per-event allocation). With a single OS thread available
// (GOMAXPROCS=1) the Go scheduler keeps the remaining switches on-thread,
// which is ~4x cheaper than cross-thread wakeups — the right setting when
// one simulation owns the whole process. When many engines run
// concurrently (parallel experiment sweeps, one engine per host goroutine),
// leave GOMAXPROCS alone: all host threads stay busy and determinism is
// unaffected either way because each engine's event order never depends on
// goroutine scheduling. EngineStats reports how many events, proc
// dispatches and callbacks a run executed, so throughput (events/sec) and
// the dispatch-avoidance ratio are directly measurable.
//
// # Sharding
//
// Two sharding layers exist on top of the core engine. NewEngineShards(n)
// partitions one engine's event queue into n per-node heaps merged
// deterministically at dispatch — byte-identical to the serial engine by
// construction, with per-shard traffic counters (ShardStats) exposing the
// cross-node event flow. Sharded (see sharded.go) runs n engines on their
// own goroutines in conservative barrier rounds — adaptive per-shard-pair
// lookahead horizons by default, a single lock-step window behind a flag —
// for shard-confined programs whose only cross-shard interaction is
// RouteAfter; lineage keys make its results byte-identical to the serial
// engine as well.
//
// # Failure propagation
//
// A panic inside a proc body is captured and re-raised as a *ProcPanic
// from the Engine.Run call driving the simulation — i.e. on the caller's
// goroutine, where it can be recovered per run. A panic inside a callback
// (including a chain link) is wrapped the same way, attributed to the
// pseudo-proc "callback"; the callback may have run on a proc's goroutine,
// which recovers the panic in its dispatch loop and hands the failure home
// to Run. The engine shuts down its remaining procs first, so no goroutines
// leak past the failure.
package sim

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
)

// Time is a virtual timestamp or duration in nanoseconds. The simulation
// starts at time 0. Time is a distinct type (not time.Duration) to make it
// impossible to accidentally mix virtual and wall-clock time.
type Time int64

// Convenient virtual-duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// String formats the time with an adaptive unit, e.g. "12.5us" or "3.04s".
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/1e3)
	case t < 10*Second:
		return fmt.Sprintf("%.2fms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(t)/1e9)
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Forever sentinels "run to completion" when passed to Engine.Run.
const Forever Time = -1

// ProcState describes the lifecycle state of a Proc.
type ProcState uint8

// Proc lifecycle states.
const (
	StateNew       ProcState = iota // created, start event pending
	StateRunning                    // currently executing
	StateScheduled                  // has a pending wake event in the queue
	StateParked                     // suspended, waiting for an explicit Wake
	StateDead                       // body returned (or proc was killed)
)

func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateScheduled:
		return "scheduled"
	case StateParked:
		return "parked"
	case StateDead:
		return "dead"
	}
	return "invalid"
}

type wakeSignal uint8

const (
	wakeRun  wakeSignal = iota // -> proc: run until the next suspension
	wakeKill                   // Shutdown -> proc: unwind and exit
	wakeDone                   // proc -> Shutdown: unwound
)

// killed is the panic payload used to unwind a proc's goroutine during
// Engine.Shutdown. It never escapes the package.
type killed struct{}

// ProcPanic is the payload Engine.Run re-panics with when a proc body
// panicked: the proc's identity, the virtual time of the failure, the
// original panic value, and the goroutine's stack at the point of the
// panic. Panics inside engine callbacks carry the proc name "callback".
type ProcPanic struct {
	Proc  string // name of the panicking proc
	T     Time   // virtual time of the panic
	Value any    // original panic value
	Stack []byte // goroutine stack trace at the panic
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: panic in proc %q at t=%v: %v", pp.Proc, pp.T, pp.Value)
}

func (pp *ProcPanic) String() string {
	return pp.Error() + "\n" + string(pp.Stack)
}

// EngineStats counts the host-side work a run performed. All counters are
// deterministic: they depend only on the simulated program, never on host
// scheduling, so they are safe to report alongside virtual-time results.
// The counters are independent of the engine's shard count: the same
// program dispatches the same events in the same order at any -shards N.
type EngineStats struct {
	Events    uint64 // events dispatched by Run
	Handoffs  uint64 // proc dispatches (the expensive path), incl. self-resumes that need no goroutine switch
	Callbacks uint64 // engine-loop callbacks executed (incl. chain links)
}

// ShardStats counts per-shard event traffic of a multi-heap engine. Inbound
// counts events scheduled onto the shard from a different shard's context —
// the cross-node traffic a windowed parallel execution would exchange
// through per-pair queues. Kept separate from EngineStats so the latter
// stays byte-identical across shard counts.
type ShardStats struct {
	Events  uint64 // events dispatched from this shard's heap
	Inbound uint64 // events scheduled onto this shard from another shard
}

// event is a single entry in the engine's priority queue: either a proc
// wake-up (p != nil) or a callback (fn != nil). Events are plain values in
// the slice-backed heap, so scheduling allocates nothing. key is non-nil
// only in keyed engines (the windowed sharded mode, see sharded.go).
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
	key *knode
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: Run, Shutdown, Go, At and After must be called either
// from the goroutine that owns the engine (outside Run) or from within a
// running proc or callback. Engine state is written by whichever goroutine
// holds control; every transfer of control is a channel operation, which
// orders those writes.
//
// An engine built with NewEngineShards(n) partitions its event queue into n
// per-shard heaps (one per simulated node); dispatch pops the global
// minimum across heaps by (t, seq), so event order — and therefore every
// result, trace and statistic — is byte-identical to the single-heap engine
// at any shard count. Events inherit the shard of the context that
// schedules them unless routed explicitly (AfterOn, GoIDOn); proc wake-ups
// always land on the proc's own shard, pinning proc↔shard ownership.
type Engine struct {
	now      Time
	seq      uint64
	heaps    []eventHeap // per-shard event queues; len >= 1
	curShard int         // shard of the event being dispatched (0 outside Run)
	current  *Proc
	ready    *Proc         // proc to hand control to when the current callback returns
	until    Time          // horizon of the current Run
	home     chan struct{} // the Run caller waits here while procs hold control
	live     *Proc         // head of the intrusive doubly-linked list of live procs
	nlive    int
	parked   int
	stopped  bool
	fail     *ProcPanic   // set by a panicking proc, re-raised by Run
	trace    func(string) // optional debug trace hook
	stats    EngineStats
	sstats   []ShardStats
	chains   *Chain // free list of pooled Chain objects

	// Keyed lineage mode (windowed sharding, see sharded.go): every event
	// carries a lineage key encoding its serial scheduling instant, and
	// heaps order same-time events by key instead of seq. rootSeq is shared
	// across a shard group so setup-time keys are globally ordered.
	keyed    bool
	rootSeq  *uint64
	curKey   *knode // key of the event being dispatched (nil outside Run)
	lastKey  *knode // key of the last dispatched event, released by the next loop iteration
	curIdx   uint64 // schedule-call index within the current dispatch
	keyPool  *knode // intrusive free list of recycled lineage nodes (parent = link)
	keyPoolN int
}

// NewEngine returns an empty engine with the clock at 0 and a single event
// heap.
func NewEngine() *Engine {
	return NewEngineShards(1)
}

// NewEngineShards returns an empty engine whose event queue is partitioned
// into shards per-node heaps, merged deterministically at dispatch (see the
// Engine doc). shards <= 1 yields the plain single-heap engine.
func NewEngineShards(shards int) *Engine {
	if shards < 1 {
		shards = 1
	}
	return &Engine{
		heaps:  make([]eventHeap, shards),
		sstats: make([]ShardStats, shards),
		home:   make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Live returns the number of procs that have been created and have not yet
// finished.
func (e *Engine) Live() int { return e.nlive }

// Parked returns the number of procs currently parked (waiting for Wake or
// a chain completion).
func (e *Engine) Parked() int { return e.parked }

// Pending returns the number of queued events across all shards.
func (e *Engine) Pending() int {
	n := 0
	for i := range e.heaps {
		n += len(e.heaps[i])
	}
	return n
}

// Stats returns the engine's host-side work counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Shards returns the number of per-node event heaps (1 for a plain engine).
func (e *Engine) Shards() int { return len(e.heaps) }

// ShardStats returns the per-shard dispatch and cross-shard traffic
// counters. The returned slice is a snapshot.
func (e *Engine) ShardStats() []ShardStats {
	out := make([]ShardStats, len(e.sstats))
	copy(out, e.sstats)
	return out
}

// CrossShard returns the total number of events scheduled across shard
// boundaries — the traffic a windowed parallel execution would route
// through per-pair queues.
func (e *Engine) CrossShard() uint64 {
	var n uint64
	for i := range e.sstats {
		n += e.sstats[i].Inbound
	}
	return n
}

// AssertShard panics unless p is owned by the given shard. Runtimes use it
// to enforce that a proc's node assignment is stable for the whole run:
// work migrates between nodes, proc↔shard ownership never does — a
// violation would corrupt window order in a parallel execution, so it must
// fail fast instead.
func (e *Engine) AssertShard(p *Proc, shard int) {
	if p.shard != shard {
		panic(fmt.Sprintf("sim: proc %q owned by shard %d, expected %d — proc↔shard ownership must be stable",
			p.Name(), p.shard, shard))
	}
}

// Stop makes Run return after the current event completes. It may be called
// from inside a proc or callback.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// SetTrace installs a debug trace hook invoked with a line per event.
// Pass nil to disable.
func (e *Engine) SetTrace(fn func(string)) { e.trace = fn }

// nextKey builds the lineage key of the event being scheduled: a child of
// the current dispatch's key, or (outside any dispatch) a root keyed by the
// group-wide setup counter. Nodes come from the engine's free list (see
// newKnode/releaseKey in sharded.go); a child pins its parent with one
// reference. Called only in keyed engines.
func (e *Engine) nextKey() *knode {
	if e.curKey != nil {
		k := e.newKnode(e.now, e.curKey, e.curIdx)
		e.curIdx++
		atomic.AddInt32(&e.curKey.refs, 1)
		return k
	}
	k := e.newKnode(e.now, nil, *e.rootSeq)
	*e.rootSeq++
	return k
}

func (e *Engine) schedule(t Time, shard int, p *Proc, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	var k *knode
	if e.keyed {
		k = e.nextKey()
	}
	if shard != e.curShard {
		e.sstats[shard].Inbound++
	}
	e.heaps[shard].push(event{t: t, seq: e.seq, p: p, fn: fn, key: k})
}

// At schedules fn to run in the dispatch loop at virtual time t (which
// must not be in the past).
func (e *Engine) At(t Time, fn func()) { e.schedule(t, e.curShard, nil, fn) }

// After schedules fn to run in the dispatch loop d nanoseconds from now.
// The event lands on the shard of the scheduling context.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now+d, e.curShard, nil, fn)
}

// AfterOn is After with an explicit target shard — the routing seam for
// cross-node operations (rdma completions, message deliveries): the
// completion event belongs to the shard owning the target rank's node.
// Out-of-range shards fail fast.
func (e *Engine) AfterOn(shard int, d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	if shard < 0 || shard >= len(e.heaps) {
		panic(fmt.Sprintf("sim: AfterOn shard %d out of range [0,%d)", shard, len(e.heaps)))
	}
	e.schedule(e.now+d, shard, nil, fn)
}

// Go creates a new proc that will begin executing body at the current
// virtual time (after already-queued events at this time). The name is used
// in diagnostics only. The proc is owned by the shard of the spawning
// context.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return e.spawn(0, e.curShard, name, "", 0, body)
}

// GoAfter is Go with a start delay of d virtual nanoseconds.
func (e *Engine) GoAfter(d Time, name string, body func(p *Proc)) *Proc {
	return e.spawn(d, e.curShard, name, "", 0, body)
}

// GoID is Go with a lazily formatted name prefix+id (e.g. "worker", 3 →
// "worker3"): the string is built only if Name is actually called (trace or
// failure diagnostics), keeping fmt off the spawn path of runs that create
// one proc per simulated thread.
func (e *Engine) GoID(prefix string, id int64, body func(p *Proc)) *Proc {
	return e.spawn(0, e.curShard, "", prefix, id, body)
}

// GoIDOn is GoID with explicit shard placement, used at setup time to pin
// each simulated node's procs to its shard. Out-of-range shards fail fast.
func (e *Engine) GoIDOn(shard int, prefix string, id int64, body func(p *Proc)) *Proc {
	if shard < 0 || shard >= len(e.heaps) {
		panic(fmt.Sprintf("sim: GoIDOn shard %d out of range [0,%d)", shard, len(e.heaps)))
	}
	return e.spawn(0, shard, "", prefix, id, body)
}

func (e *Engine) spawn(d Time, shard int, name, prefix string, id int64, body func(p *Proc)) *Proc {
	if d < 0 {
		panic("sim: negative delay")
	}
	p := &Proc{
		eng:    e,
		name:   name,
		prefix: prefix,
		id:     id,
		shard:  shard,
		ch:     make(chan wakeSignal),
		body:   body,
		state:  StateNew,
	}
	e.link(p)
	p.state = StateScheduled
	e.schedule(e.now+d, p.shard, p, nil)
	return p
}

// link prepends p to the live list.
func (e *Engine) link(p *Proc) {
	p.nextLive = e.live
	if e.live != nil {
		e.live.prevLive = p
	}
	e.live = p
	e.nlive++
}

// unlink removes p from the live list.
func (e *Engine) unlink(p *Proc) {
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		e.live = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
	e.nlive--
}

// Run executes events until the queue is empty, Stop is called, or the next
// event lies beyond the until horizon (pass Forever for no horizon). It
// returns the virtual time at which it stopped. When a horizon is given and
// events remain beyond it, the clock is advanced exactly to the horizon; a
// horizon already in the past leaves the clock where it is.
//
// The caller's goroutine runs the dispatch loop (see next) until the first
// proc event, then waits on the engine's home channel while control passes
// from proc to proc; whichever goroutine ends the run hands control back.
//
// A panic escaping an event — a proc body or an engine callback — is
// re-raised from Run as a *ProcPanic after the remaining procs are torn
// down, so no goroutines leak past a failed simulation.
func (e *Engine) Run(until Time) Time {
	e.until = until
	if q := e.next(); q != nil {
		e.pass(q)
		<-e.home
	}
	if pp := e.fail; pp != nil {
		// Tear the remaining procs down so no goroutine leaks, then re-raise
		// on this (the caller's) goroutine.
		e.fail = nil
		e.Shutdown()
		panic(pp)
	}
	return e.now
}

// next is the dispatch loop, run by whichever goroutine holds control: the
// Run caller, a proc that just suspended, or a proc whose body just
// returned. It executes callbacks inline and stops at the next proc event,
// returning the proc to resume — already marked running and current — or
// nil when the run is over (empty queue, horizon, Stop, or a recorded
// failure). A callback panic ends the run with the failure recorded for Run
// to re-raise; the stack captured here still shows the callback.
func (e *Engine) next() (p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			e.fail = &ProcPanic{Proc: "callback", T: e.now, Value: r, Stack: buf[:runtime.Stack(buf, false)]}
			p = nil
		}
	}()
	e.current = nil
	for {
		if k := e.lastKey; k != nil {
			// The previous dispatch is over. Its event's reference on its
			// lineage key goes now: children scheduled during the dispatch
			// hold their own, so this recycles exactly the nodes no live
			// event can reach.
			e.lastKey, e.curKey = nil, nil
			e.releaseKey(k)
		}
		if e.stopped || e.fail != nil {
			return nil
		}
		// Merge point: pop the global minimum across the per-shard heaps.
		// The comparison is (t, seq) — or (t, lineage key) in keyed mode —
		// so the dispatch order is identical to a single-heap engine.
		best := -1
		for i := range e.heaps {
			if len(e.heaps[i]) == 0 {
				continue
			}
			if best < 0 || e.heaps[i].beats(e.heaps[best]) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		ev := e.heaps[best].peek()
		if e.until >= 0 && ev.t > e.until {
			if e.now < e.until {
				e.now = e.until
			}
			return nil
		}
		e.heaps[best].pop()
		e.now = ev.t
		e.curShard = best
		if e.keyed {
			e.curKey = ev.key
			e.curIdx = 0
			e.lastKey = ev.key
		}
		if ev.fn != nil {
			if e.trace != nil {
				e.trace(fmt.Sprintf("t=%v callback", e.now))
			}
			e.stats.Events++
			e.stats.Callbacks++
			e.sstats[best].Events++
			ev.fn()
			if p := e.ready; p != nil {
				// A chain completed inside the callback: hand the issuing
				// proc control within this same event, so it resumes at
				// exactly the (time, seq) instant of the final link.
				e.ready = nil
				if e.trace != nil {
					e.trace(fmt.Sprintf("t=%v resume %q", e.now, p.Name()))
				}
				return e.dispatch(p)
			}
		} else if p := ev.p; p != nil && p.state != StateDead {
			// (Skips the stale event a killed proc can leave behind.)
			if e.trace != nil {
				e.trace(fmt.Sprintf("t=%v run %q", e.now, p.Name()))
			}
			e.stats.Events++
			e.sstats[best].Events++
			return e.dispatch(p)
		}
	}
}

// dispatch makes p the running proc. Handoffs counts every proc dispatch,
// including those that resume the dispatching proc itself without a
// goroutine switch.
func (e *Engine) dispatch(p *Proc) *Proc {
	p.state = StateRunning
	e.current = p
	// The proc may be resumed from an event on a foreign shard (a completion
	// callback routed to the target node's heap finishing the proc's chain).
	// Anything the proc schedules while running belongs to its own shard.
	e.curShard = p.shard
	e.stats.Handoffs++
	return p
}

// pass hands control to q, the proc next returned, or home to the waiting
// Run caller when the run is over (q == nil). A proc's first dispatch
// starts its goroutine instead of waking it.
func (e *Engine) pass(q *Proc) {
	switch {
	case q == nil:
		e.home <- struct{}{}
	case q.body != nil:
		body := q.body
		q.body = nil
		go q.main(body)
	default:
		q.ch <- wakeRun
	}
}

// Deadlocked reports whether the simulation has reached a state with no
// pending events but live parked procs — i.e. progress is impossible.
func (e *Engine) Deadlocked() bool {
	return e.Pending() == 0 && e.parked > 0
}

// Shutdown force-kills all live procs so their goroutines exit. It must be
// called from outside Run (i.e. not from a proc or callback). After
// Shutdown the engine must not be reused. Procs are killed in reverse
// creation order (deterministically — the live list is intrusive, not a
// map), unwinding any pending completion chains with them.
func (e *Engine) Shutdown() {
	e.stopped = true
	for e.live != nil {
		p := e.live
		switch {
		case p.body != nil:
			// Never dispatched, so there is no goroutine to unwind.
			p.body = nil
			p.state = StateDead
			e.unlink(p)
		case p.state == StateParked || p.state == StateScheduled:
			p.state = StateDead
			p.ch <- wakeKill
			<-p.ch
		default:
			panic(fmt.Sprintf("sim: Shutdown with proc %q in state %v", p.Name(), p.state))
		}
	}
	for i := range e.heaps {
		e.heaps[i] = nil
	}
	e.chains = nil
	e.ready = nil
	e.curKey, e.lastKey = nil, nil
	e.keyPool = nil
	e.keyPoolN = 0
}

// Proc is a simulated process: a goroutine whose execution is interleaved
// with virtual time by the engine. All methods must be called from the
// proc's own body.
type Proc struct {
	eng  *Engine
	name string // explicit name, or "" when prefix+id is formatted lazily
	id   int64

	// ch is the proc's wake channel. The goroutine handing a suspended proc
	// control (the Run caller or another proc) sends wakeRun; Shutdown sends
	// wakeKill and waits for the proc's wakeDone. A suspending proc never
	// answers on it: it passes control on through the next proc's channel or
	// the engine's home channel. Unbuffered, so every transfer is a direct
	// rendezvous the Go scheduler can service without a queue round trip.
	ch chan wakeSignal

	// body is kept until the proc's first dispatch, which starts its
	// goroutine already holding control; nil once started.
	body func(p *Proc)

	prefix             string
	shard              int // owning shard; stable for the proc's lifetime
	state              ProcState
	prevLive, nextLive *Proc
}

// Name returns the diagnostic name given at creation, formatting a lazy
// prefix+id name on demand.
func (p *Proc) Name() string {
	if p.name != "" {
		return p.name
	}
	return p.prefix + strconv.FormatInt(p.id, 10)
}

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// State returns the proc's lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Shard returns the shard that owns this proc (0 in a single-heap engine).
func (p *Proc) Shard() int { return p.shard }

// main is the proc's goroutine, started by its first dispatch. When its
// body returns (or panics, the failure recorded for Run) the goroutine
// still holds control: it runs the dispatch loop, hands control on, and
// exits.
func (p *Proc) main(body func(p *Proc)) {
	e := p.eng
	finished := p.runBody(body)
	p.state = StateDead
	e.unlink(p)
	if finished {
		e.pass(e.next())
		return
	}
	// Killed by Shutdown, which waits for the acknowledgement.
	p.ch <- wakeDone
}

// runBody runs the proc's body, reporting false if Shutdown unwound it.
func (p *Proc) runBody(body func(p *Proc)) (finished bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); ok {
				return
			}
			// Real panic in simulation code: record it with the proc's
			// identity and stack. The proc dies normally; Engine.Run
			// re-raises the failure on the goroutine driving the
			// simulation, where it can be recovered per run.
			e := p.eng
			buf := make([]byte, 64<<10)
			pp := &ProcPanic{Proc: p.Name(), T: e.now, Value: r, Stack: buf[:runtime.Stack(buf, false)]}
			if e.fail == nil {
				e.fail = pp
			}
			finished = true
		}
	}()
	body(p)
	return true
}

// yield suspends the proc: it runs the dispatch loop on the proc's own
// goroutine and returns at once if the next proc event is its own;
// otherwise it passes control on and blocks until the next wake.
func (p *Proc) yield() {
	e := p.eng
	q := e.next()
	if q == p {
		return
	}
	e.pass(q)
	if sig := <-p.ch; sig == wakeKill {
		panic(killed{})
	}
}

// Sleep suspends the proc for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if p.eng.current != p {
		panic(fmt.Sprintf("sim: Sleep called on proc %q that is not current", p.Name()))
	}
	p.state = StateScheduled
	p.eng.schedule(p.eng.now+d, p.shard, p, nil)
	p.yield()
	p.state = StateRunning
}

// Park suspends the proc until another proc or a callback calls Wake (or
// WakeAfter) on it.
func (p *Proc) Park() {
	if p.eng.current != p {
		panic(fmt.Sprintf("sim: Park called on proc %q that is not current", p.Name()))
	}
	p.state = StateParked
	p.eng.parked++
	p.yield()
	p.state = StateRunning
}

// Wake makes a parked proc runnable at the current virtual time. It panics
// if the proc is not parked; use State to guard when unsure.
func (e *Engine) Wake(p *Proc) { e.WakeAfter(p, 0) }

// WakeAfter makes a parked proc runnable d nanoseconds from now.
func (e *Engine) WakeAfter(p *Proc, d Time) {
	if d < 0 {
		panic("sim: negative delay")
	}
	if p.state != StateParked {
		panic(fmt.Sprintf("sim: Wake of proc %q in state %v", p.Name(), p.state))
	}
	e.parked--
	p.state = StateScheduled
	e.schedule(e.now+d, p.shard, p, nil)
}

// Chain is a split-phase completion chain: a state machine of timed
// callbacks standing in for a sequence of blocking Sleeps (see the package
// comment). The issuing proc creates the chain, issues the first link, and
// calls Wait; each link's callback performs its memory access and either
// schedules the next link (Then) or finishes the protocol (Complete), which
// resumes the waiting proc within the same event. A chain whose every step
// turns out to be immediate (e.g. all-local fabric operations) may Complete
// synchronously before Wait is called; Wait then returns without parking.
type Chain struct {
	eng     *Engine
	p       *Proc
	done    bool
	waiting bool   // proc is parked in Wait
	next    *Chain // engine free list
}

// NewChain returns a (pooled) chain that will wake p on completion. It must
// be called by p itself, before the proc suspends.
func (e *Engine) NewChain(p *Proc) *Chain {
	c := e.chains
	if c != nil {
		e.chains = c.next
		c.p = p
		c.done = false
		c.waiting = false
		c.next = nil
		return c
	}
	return &Chain{eng: e, p: p}
}

// Then schedules the next link of the chain: fn runs in the dispatch loop
// d nanoseconds from now — the split-phase equivalent of Sleep(d) followed
// by fn inline. One link consumes exactly one event and one sequence
// number, like the Sleep it replaces.
func (c *Chain) Then(d Time, fn func()) { c.eng.After(d, fn) }

// Complete finishes the chain. Called from inside a link's callback it
// arranges for the waiting proc to resume within the current event (same
// virtual time, same sequence number); called synchronously — before the
// issuing proc ever suspended — it just marks the chain done so Wait
// returns immediately.
func (c *Chain) Complete() {
	c.done = true
	if c.waiting {
		if c.eng.ready != nil {
			panic("sim: two chains completed within one event")
		}
		c.waiting = false
		c.eng.parked--
		c.eng.ready = c.p
	}
}

// Wait suspends the issuing proc until Complete, then releases the chain
// back to the engine pool (the chain must not be used after Wait).
func (c *Chain) Wait() {
	p := c.p
	e := c.eng
	if e.current != p {
		panic(fmt.Sprintf("sim: Chain.Wait called on proc %q that is not current", p.Name()))
	}
	if !c.done {
		c.waiting = true
		p.state = StateParked
		e.parked++
		p.yield()
		p.state = StateRunning
	}
	c.p = nil
	c.next = e.chains
	e.chains = c
}
