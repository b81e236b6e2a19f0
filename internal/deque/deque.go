// Package deque implements the per-worker task queue of the runtime as a
// double-ended queue in RDMA-registered memory, following the THE protocol
// (Frigo, Leiserson, Randall, PLDI '98) adapted to one-sided remote access,
// as assumed in §II of the paper.
//
// The owner pushes and pops at the bottom (LIFO); thieves steal from the
// top (FIFO), so the oldest task — expected to carry the most work — is
// always stolen. The owner's fast path touches only local memory; a thief
// drives the whole protocol with one-sided operations:
//
//	fast empty check:  get (top, bottom)            1 op
//	lock:              CAS(lock, 0, 1)              1 op
//	recheck + read:    get (top, bottom), get entry 2 ops
//	advance + unlock:  put top+1, put lock=0        2 ops
//
// giving roughly five remote operations per successful steal — matching the
// ~20–30 µs successful-steal latencies in Table II once stack transfer is
// added. The lock serializes thieves against each other and against the
// owner's slow path, exactly as in Cilk's THE protocol; the owner acquires
// it only when the deque may be about to go empty.
//
// Entries are fixed-size byte records (the task descriptor that would sit in
// registered memory in the real system). Because a simulated thread's
// control state is a parked goroutine, each entry may also carry an opaque
// Go value (obj); a thief obtains it through the descriptor it just read,
// which is a zero-cost bookkeeping step in the simulator.
package deque

import (
	"fmt"

	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// header layout (byte offsets within the deque's block).
const (
	offTop    = 0
	offBottom = 8
	offLock   = 16
	headerLen = 24
)

// Stats counts deque events observed at one deque.
type Stats struct {
	Pushes, Pops     uint64
	StealsOK         uint64 // successful steals from this deque (incl. StealN)
	StealsEmpty      uint64 // failed: deque observed empty
	StealsContended  uint64 // failed: lost the lock race
	OwnerLockRetries uint64
	BatchSteals      uint64 // successful StealN protocol runs
	BatchEntries     uint64 // entries taken across all StealN runs
}

// Deque is one worker's task queue, resident in that worker's RDMA segment.
type Deque struct {
	fab       *rdma.Fabric
	mach      *topo.Machine
	rank      int
	entrySize int
	capacity  int

	base rdma.Addr     // block: header + entries
	objs []any         // parallel Go-side payloads, indexed by slot (see setObj)
	free *stealAttempt // finished steal-attempt records, for reuse

	St Stats

	// Tr, when non-nil, receives the steal protocol's phase spans: one
	// victim-side span per chain link (hdr get, lock CAS, recheck, entry
	// read, top advance, unlock) plus one thief-side span covering the whole
	// protocol on success, all sharing a correlation ID. Nil by default.
	Tr obs.Tracer

	// Batch must be set (before any concurrent use) when thieves will run
	// the multi-entry StealN protocol against this deque. THE's lock only
	// protects the top entry from the owner's lock-free fast-path Pop: a
	// batch thief claims slots top..top+k-1, and the owner could pop down
	// into that range from the bottom before the top+k advance lands. In
	// batch mode the owner therefore takes the lock on every Pop (the
	// split-queue model: the public region is lock-protected), serializing
	// owner pops against in-flight batch steals. Off by default so the
	// steal-one protocol keeps the paper's lock-free owner fast path.
	Batch bool
}

// New creates a deque with the given capacity (entries) and entry size
// (bytes) in rank's registered segment.
func New(fab *rdma.Fabric, rank, capacity, entrySize int) *Deque {
	d := &Deque{
		fab:       fab,
		mach:      fab.Mach,
		rank:      rank,
		entrySize: entrySize,
		capacity:  capacity,
	}
	d.base = fab.AllocStatic(rank, headerLen+capacity*entrySize)
	return d
}

// Rank returns the owning rank.
func (d *Deque) Rank() int { return d.rank }

// EntrySize returns the fixed descriptor size in bytes.
func (d *Deque) EntrySize() int { return d.entrySize }

func (d *Deque) loc(off int, size int) rdma.Loc {
	return rdma.Loc{Rank: int32(d.rank), Addr: d.base + rdma.Addr(off), Size: int32(size)}
}

// slotIndex maps a (possibly negative) position onto the ring.
func (d *Deque) slotIndex(pos int64) int {
	c := int64(d.capacity)
	return int(((pos % c) + c) % c)
}

func (d *Deque) entryOff(slot int64) int {
	return headerLen + d.slotIndex(slot)*d.entrySize
}

// seg is the owner's direct view of its own segment.
func (d *Deque) seg() *rdma.Segment { return d.fab.Seg(d.rank) }

func (d *Deque) top() int64     { return d.seg().ReadInt64(d.base + offTop) }
func (d *Deque) bottom() int64  { return d.seg().ReadInt64(d.base + offBottom) }
func (d *Deque) setTop(v int64) { d.seg().WriteInt64(d.base+offTop, v) }
func (d *Deque) setBot(v int64) { d.seg().WriteInt64(d.base+offBottom, v) }

// Len returns the number of queued entries (owner view, zero cost).
func (d *Deque) Len() int { return int(d.bottom() - d.top()) }

// ownerLock spins on the local lock word. Thief lock holds are a handful of
// microseconds, so bounded retries with a small local backoff suffice.
func (d *Deque) ownerLock(p *sim.Proc) {
	lock := d.loc(offLock, 8)
	for {
		if d.fab.CAS(p, d.rank, lock, 0, 1) == 0 {
			return
		}
		d.St.OwnerLockRetries++
		p.Sleep(d.mach.LocalOp + 100)
	}
}

func (d *Deque) ownerUnlock() {
	d.seg().WriteInt64(d.base+offLock, 0)
}

// Push appends an entry at the bottom (owner only). The descriptor bytes
// must be exactly EntrySize long; obj rides along for the simulator.
func (d *Deque) Push(p *sim.Proc, entry []byte, obj any) {
	if len(entry) != d.entrySize {
		panic(fmt.Sprintf("deque: push of %d-byte entry, want %d", len(entry), d.entrySize))
	}
	// Charge the cost first, publish second: the entry becomes visible to
	// thieves atomically at the end of the push, so the owner cannot be
	// interrupted between publishing and its next action.
	p.Sleep(d.mach.LocalOp)
	b := d.bottom()
	if int(b-d.top()) >= d.capacity {
		panic(fmt.Sprintf("deque: rank %d queue overflow (cap %d)", d.rank, d.capacity))
	}
	off := d.entryOff(b)
	copy(d.seg().Bytes(d.base+rdma.Addr(off), d.entrySize), entry)
	d.setObj(d.slotIndex(b), obj)
	d.setBot(b + 1)
	d.St.Pushes++
}

// PushTop inserts an entry at the top — the steal (FIFO) end — so it runs
// after every other queued task locally and is the first candidate for
// thieves. Used by Yield. Owner only; takes the lock because the top end is
// shared with thieves.
func (d *Deque) PushTop(p *sim.Proc, entry []byte, obj any) {
	if len(entry) != d.entrySize {
		panic(fmt.Sprintf("deque: push of %d-byte entry, want %d", len(entry), d.entrySize))
	}
	p.Sleep(d.mach.LocalOp)
	d.ownerLock(p)
	t := d.top() - 1
	if int(d.bottom()-t) > d.capacity {
		d.ownerUnlock()
		panic(fmt.Sprintf("deque: rank %d queue overflow (cap %d)", d.rank, d.capacity))
	}
	off := d.entryOff(t)
	copy(d.seg().Bytes(d.base+rdma.Addr(off), d.entrySize), entry)
	d.setObj(d.slotIndex(t), obj)
	d.setTop(t)
	d.ownerUnlock()
	d.St.Pushes++
}

// Pop removes and returns the bottom entry (owner only, LIFO). Following
// THE, the owner optimistically decrements bottom and only takes the lock
// when it may race with a thief on the last entry.
func (d *Deque) Pop(p *sim.Proc) ([]byte, any, bool) {
	if d.Batch {
		return d.popLocked(p)
	}
	p.Sleep(d.mach.LocalOp)
	b := d.bottom() - 1
	d.setBot(b)
	t := d.top()
	if t >= b {
		// Zero or one entry left: a thief may be racing for the same slot,
		// so restore bottom and resolve under the lock (THE slow path).
		d.setBot(b + 1)
		d.ownerLock(p)
		b = d.bottom() - 1
		t = d.top()
		if t > b {
			// Empty for sure.
			d.ownerUnlock()
			return nil, nil, false
		}
		d.setBot(b)
		entry, obj := d.take(b)
		d.ownerUnlock()
		d.St.Pops++
		return entry, obj, true
	}
	entry, obj := d.take(b)
	d.St.Pops++
	return entry, obj, true
}

// popLocked is Pop under batch mode: every owner pop holds the lock, so a
// StealN thief's claimed range can never be popped out from under it.
func (d *Deque) popLocked(p *sim.Proc) ([]byte, any, bool) {
	p.Sleep(d.mach.LocalOp)
	d.ownerLock(p)
	b := d.bottom() - 1
	if d.top() > b {
		d.ownerUnlock()
		return nil, nil, false
	}
	d.setBot(b)
	entry, obj := d.take(b)
	d.ownerUnlock()
	d.St.Pops++
	return entry, obj, true
}

// take reads out slot b and clears its obj reference (no simulated cost —
// owner-local access; callers charge costs).
func (d *Deque) take(slot int64) ([]byte, any) {
	off := d.entryOff(slot)
	entry := make([]byte, d.entrySize)
	copy(entry, d.seg().Bytes(d.base+rdma.Addr(off), d.entrySize))
	return entry, d.takeObj(d.slotIndex(slot))
}

// setObj stores obj in ring slot i, growing the payload ring (by doubling,
// up to capacity) the first time a slot past its end is used: a deque that
// never holds more than a few entries never pays for a full ring.
func (d *Deque) setObj(i int, obj any) {
	if i >= len(d.objs) {
		n := max(len(d.objs)*2, 16)
		for n <= i {
			n *= 2
		}
		grown := make([]any, min(n, d.capacity))
		copy(grown, d.objs)
		d.objs = grown
	}
	d.objs[i] = obj
}

// takeObj removes and returns the payload in ring slot i.
func (d *Deque) takeObj(i int) any {
	if i >= len(d.objs) {
		return nil
	}
	obj := d.objs[i]
	d.objs[i] = nil
	return obj
}

// Steal removes and returns the top entry on behalf of a remote thief
// (FIFO). The full one-sided protocol is driven from thiefRank's side and
// charged to p, as a single completion chain: every sub-operation's memory
// access fires at the same virtual instant as in a blocking formulation,
// but the thief's proc parks only once for the whole protocol. On failure
// it reports whether the deque looked empty or the lock was contended via
// the deque's stats.
func (d *Deque) Steal(p *sim.Proc, thiefRank int) ([]byte, any, bool) {
	a := d.attempt(p, thiefRank, nil)
	a.run()
	entry, obj, ok := a.entry, a.obj, a.ok
	d.release(a)
	return entry, obj, ok
}

// StealN removes and returns up to take(available) entries from the top on
// behalf of a remote thief — the multi-entry generalization of Steal for
// steal-half-style policies. The protocol is the same timed completion chain
// as Steal's, with the single entry read widened to k consecutive gets:
//
//	fast empty check:  get (top, bottom)             1 op
//	lock:              CAS(lock, 0, 1)               1 op
//	recheck:           get (top, bottom)             1 op
//	read:              get entry × k                 k ops
//	advance + unlock:  put top+k, put lock=0         2 ops
//
// take is called once, under the lock, with the rechecked entry count; its
// result is clamped to [1, available]. Entries come back oldest-first (slot
// order top..top+k-1). With take ≡ 1 the chain is op-for-op identical to
// Steal. Failure reporting matches Steal (StealsEmpty/StealsContended); a
// success counts once in StealsOK and once in BatchSteals, with k added to
// BatchEntries.
func (d *Deque) StealN(p *sim.Proc, thiefRank int, take func(avail int64) int64) ([][]byte, []any, bool) {
	a := d.attempt(p, thiefRank, take)
	a.run()
	entries, objs, ok := a.entries, a.objs, a.ok
	d.release(a)
	return entries, objs, ok
}

// stealAttempt is the state of one in-flight steal protocol (Steal, or
// StealN when take is set). Records are pooled per deque, the way the
// engine pools its chains, and each record's link callbacks are method
// values bound once when it is created, so an attempt that finds the deque
// empty or its lock taken allocates nothing beyond the fabric's completion
// events. Several thieves may be stealing from one deque at a time, each
// with its own record.
type stealAttempt struct {
	d     *Deque
	c     *sim.Chain
	thief int
	take  func(avail int64) int64 // nil for a single-entry Steal

	hdr  [16]byte // (top, bottom) as last read
	t, b int64
	k, i int64 // entries claimed (0 until the recheck succeeds), entries read

	// Results: entry/obj for Steal, entries/objs for StealN.
	entry   []byte
	obj     any
	entries [][]byte
	objs    []any
	ok      bool

	// Tracing: each chain link becomes a victim-side phase span starting at
	// ph; all spans of one attempt share the correlation id sid. tr is nil
	// when tracing is off.
	tr     obs.Tracer
	sid    int64
	t0, ph sim.Time

	onHdr, onRecheck, onRead, onAdvance, onUnlock func()
	onCAS                                         func(observed int64)

	next *stealAttempt // deque free list
}

// attempt takes a record from the deque's free list (or makes one) and
// readies it for a steal by thiefRank, charged to p.
func (d *Deque) attempt(p *sim.Proc, thiefRank int, take func(avail int64) int64) *stealAttempt {
	a := d.free
	if a != nil {
		d.free = a.next
		a.next = nil
	} else {
		a = &stealAttempt{d: d}
		a.onHdr = a.hdrDone
		a.onCAS = a.casDone
		a.onRecheck = a.recheckDone
		a.onRead = a.readDone
		a.onAdvance = a.advanceDone
		a.onUnlock = a.unlockDone
	}
	a.c = d.fab.Eng.NewChain(p)
	a.thief = thiefRank
	a.take = take
	a.k, a.i = 0, 0
	a.tr = d.Tr
	if a.tr != nil {
		a.sid = a.tr.Seq()
		a.t0 = d.fab.Eng.Now()
		a.ph = a.t0
	}
	return a
}

// release clears a finished record's references and returns it to the
// free list.
func (d *Deque) release(a *stealAttempt) {
	a.c, a.take, a.tr = nil, nil, nil
	a.entry, a.obj, a.entries, a.objs, a.ok = nil, nil, nil, nil, false
	a.next = d.free
	d.free = a
}

// run drives the protocol to completion: it issues the fast empty check and
// parks the thief until the last link completes the chain.
func (a *stealAttempt) run() {
	d := a.d
	d.fab.GetAsync(a.c, a.thief, d.loc(offTop, 16), a.hdr[:], a.onHdr)
	a.c.Wait()
}

// phase emits the victim-side span of the link that just completed.
func (a *stealAttempt) phase(k obs.Kind) {
	if a.tr == nil {
		return
	}
	now := a.d.fab.Eng.Now()
	a.tr.Event(obs.Event{T: a.ph, Dur: now - a.ph, Rank: a.d.rank, Kind: k, Task: -1, Peer: a.thief, ID: a.sid})
	a.ph = now
}

// readHdr decodes the (top, bottom) pair last read into hdr.
func (a *stealAttempt) readHdr() {
	a.t = int64(le(a.hdr[0:8]))
	a.b = int64(le(a.hdr[8:16]))
}

// hdrDone follows the fast empty check: give up on an empty deque, else
// take the lock.
func (a *stealAttempt) hdrDone() {
	d := a.d
	a.phase(obs.KindDequeHdr)
	a.readHdr()
	if a.t >= a.b {
		d.St.StealsEmpty++
		a.c.Complete()
		return
	}
	d.fab.CASAsync(a.c, a.thief, d.loc(offLock, 8), 0, 1, a.onCAS)
}

// casDone follows the lock CAS: give up if another holder has it, else
// recheck under the lock.
func (a *stealAttempt) casDone(observed int64) {
	d := a.d
	a.phase(obs.KindDequeCAS)
	if observed != 0 {
		d.St.StealsContended++
		a.c.Complete()
		return
	}
	d.fab.GetAsync(a.c, a.thief, d.loc(offTop, 16), a.hdr[:], a.onRecheck)
}

// recheckDone follows the recheck: unlock an emptied deque (k stays 0),
// else claim k entries and start reading them.
func (a *stealAttempt) recheckDone() {
	d := a.d
	a.phase(obs.KindDequeRecheck)
	a.readHdr()
	if a.t >= a.b {
		d.fab.PutInt64Async(a.c, a.thief, d.loc(offLock, 8), 0, a.onUnlock)
		return
	}
	a.k = 1
	if a.take != nil {
		a.k = min(max(a.take(a.b-a.t), 1), a.b-a.t)
		a.entries = make([][]byte, a.k)
	}
	a.readNext()
}

// readNext reads entry i of the claim, oldest-first, as one get per entry
// (the real protocol could coalesce contiguous slots, but the ring may wrap
// and per-entry gets keep the timing model honest about the widened read
// phase); after the last one it advances top past the claim.
func (a *stealAttempt) readNext() {
	d := a.d
	if a.i == a.k {
		d.fab.PutInt64Async(a.c, a.thief, d.loc(offTop, 8), a.t+a.k, a.onAdvance)
		return
	}
	e := make([]byte, d.entrySize)
	if a.take != nil {
		a.entries[a.i] = e
	} else {
		a.entry = e
	}
	d.fab.GetAsync(a.c, a.thief, d.loc(d.entryOff(a.t+a.i), d.entrySize), e, a.onRead)
}

func (a *stealAttempt) readDone() {
	a.phase(obs.KindDequeRead)
	a.i++
	a.readNext()
}

// advanceDone follows the top advance: release the lock.
func (a *stealAttempt) advanceDone() {
	d := a.d
	a.phase(obs.KindDequeAdvance)
	d.fab.PutInt64Async(a.c, a.thief, d.loc(offLock, 8), 0, a.onUnlock)
}

// unlockDone follows the unlock and finishes the protocol: an attempt that
// claimed nothing found the deque emptied under the lock; otherwise the
// payloads of the claimed slots are handed over (simulator bookkeeping).
func (a *stealAttempt) unlockDone() {
	d := a.d
	a.phase(obs.KindDequeUnlock)
	if a.k == 0 {
		d.St.StealsEmpty++
		a.c.Complete()
		return
	}
	if a.take != nil {
		a.objs = make([]any, a.k)
		for j := range a.objs {
			a.objs[j] = d.takeObj(d.slotIndex(a.t + int64(j)))
		}
		d.St.BatchSteals++
		d.St.BatchEntries += uint64(a.k)
	} else {
		a.obj = d.takeObj(d.slotIndex(a.t))
	}
	a.ok = true
	d.St.StealsOK++
	if a.tr != nil {
		a.tr.Event(obs.Event{
			T: a.t0, Dur: d.fab.Eng.Now() - a.t0, Rank: a.thief,
			Kind: obs.KindDequeSteal, Task: -1, Peer: d.rank,
			Size: a.k * int64(d.entrySize), ID: a.sid,
		})
	}
	a.c.Complete()
}

func le(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
