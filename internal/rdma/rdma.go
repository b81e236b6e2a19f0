// Package rdma simulates a one-sided (RDMA) communication fabric over the
// discrete-event engine. It provides exactly the primitives the paper's
// algorithms are written against: remote get, remote put, and remote atomic
// fetch-and-add / compare-and-swap on 8-byte words, plus per-rank registered
// memory segments with a local allocator.
//
// Every rank (simulated process, one per core) owns a Segment standing in
// for its pinned, RDMA-registered memory: a growable dynamic zone for small
// objects and a static zone of fixed blocks for the large reservations
// (uni-address and evacuation regions, queues). Like the paper's runtime,
// which reserves large regions but pays only for the pages it touches, a
// Segment backs each static block lazily, up to the highest byte touched
// so far, so a reservation costs host memory in proportion to its use.
//
// A Loc names a remote variable by (rank, address, size), mirroring the
// paper's "location" notion (§III-A: "the worker ID of the owner, the
// virtual address, and the size").
//
// Timing: an operation issued by rank F against rank T completes after the
// machine model's one-sided latency (intra- vs inter-node, plus payload
// transfer time and an atomic surcharge) and performs its memory access at
// that completion instant, so operations from different workers interleave
// in completion order — the property the THE protocol and the greedy-join
// race depend on. Operations by a rank on its own segment are free of
// network latency (the caller charges local costs separately).
//
// The fabric is split-phase: the *Async methods issue an operation onto a
// sim.Chain and invoke a completion callback at the op's completion time
// (local ops run the callback inline), so multi-op protocols execute as
// engine-loop callbacks with a single proc handoff at the end. The blocking
// methods (Get, Put, CAS, ...) are thin park-until-complete wrappers over
// the async ones and are exactly equivalent in virtual time: each remote op
// consumes one event and one sequence number either way, and a local op
// none. A local blocking op performs its access inline and allocates
// nothing.
package rdma

import (
	"encoding/binary"
	"fmt"
	"math"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// Addr is an offset within a rank's registered segment. Address 0 is
// reserved (never allocated) so that the zero Loc is recognizably invalid.
type Addr uint64

// Loc names a remote variable: the owning rank, the address within that
// rank's segment, and the size in bytes.
type Loc struct {
	Rank int32
	Addr Addr
	Size int32
}

// Valid reports whether the Loc names an allocated object (non-zero addr).
func (l Loc) Valid() bool { return l.Addr != 0 }

func (l Loc) String() string {
	return fmt.Sprintf("r%d:0x%x+%d", l.Rank, uint64(l.Addr), l.Size)
}

// LocSize is the wire size of an encoded Loc (rank, addr, size).
const LocSize = 16

// EncodeLoc serializes l into buf (at least LocSize bytes).
func EncodeLoc(buf []byte, l Loc) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(l.Rank))
	binary.LittleEndian.PutUint64(buf[4:], uint64(l.Addr))
	binary.LittleEndian.PutUint32(buf[12:], uint32(l.Size))
}

// DecodeLoc deserializes a Loc from buf.
func DecodeLoc(buf []byte) Loc {
	return Loc{
		Rank: int32(binary.LittleEndian.Uint32(buf[0:])),
		Addr: Addr(binary.LittleEndian.Uint64(buf[4:])),
		Size: int32(binary.LittleEndian.Uint32(buf[12:])),
	}
}

// OpStats counts fabric operations issued by one rank.
type OpStats struct {
	Gets, Puts, Atomics uint64 // remote operations issued
	LocalOps            uint64 // same-rank fabric accesses
	BytesOut, BytesIn   uint64 // payload bytes moved by remote ops
	// RemoteTime is the summed modelled completion delay of every remote
	// operation issued by this rank (including fire-and-forget PutNB). It
	// equals the summed duration of the rank's rdma.* trace spans by
	// construction — the fabric-wait column of `repro analyze`.
	RemoteTime sim.Time
	// PerturbTime is the portion of RemoteTime added by the machine's
	// Perturb model (jitter, degraded links). Zero when perturbations are
	// off; equals the summed duration of the rank's perturb.extra spans.
	PerturbTime sim.Time
}

// Add accumulates other into s.
func (s *OpStats) Add(other OpStats) {
	s.Gets += other.Gets
	s.Puts += other.Puts
	s.Atomics += other.Atomics
	s.LocalOps += other.LocalOps
	s.BytesOut += other.BytesOut
	s.BytesIn += other.BytesIn
	s.RemoteTime += other.RemoteTime
	s.PerturbTime += other.PerturbTime
}

// Fabric is the simulated RDMA network connecting P ranks.
type Fabric struct {
	Eng  *sim.Engine
	Mach *topo.Machine
	segs []*Segment
	st   []OpStats

	// Tr, when non-nil, receives one span per remote operation (kind, size,
	// issuer and target rank, issue time, modelled delay). Local operations
	// are not traced. Set before the run starts; nil costs one predictable
	// branch per op.
	Tr obs.Tracer
}

// remote models one remote op's completion delay — the machine cost plus any
// perturbation extra (latency jitter, degraded links) — charges it to the
// issuer's RemoteTime/PerturbTime, and traces it. Called exactly once per
// remote operation, at issue time; the returned delay is what the op's chain
// link (or After callback) waits for. When perturbations are off the extra
// is zero, no RNG is consumed, and no perturb span is emitted, so the traced
// timeline is byte-identical to the unperturbed one.
func (f *Fabric) remote(from int, to int32, kind obs.Kind, size int, atomic bool) sim.Time {
	delay, extra := f.Mach.OpDelay(from, int(to), size, atomic)
	f.st[from].RemoteTime += delay
	f.st[from].PerturbTime += extra
	if f.Tr != nil {
		f.Tr.Event(obs.Event{
			T: f.Eng.Now(), Dur: delay, Rank: from, Kind: kind,
			Task: -1, Peer: int(to), Size: int64(size),
		})
		if extra > 0 {
			f.Tr.Event(obs.Event{
				T: f.Eng.Now(), Dur: extra, Rank: from, Kind: obs.KindPerturb,
				Task: -1, Peer: int(to), Size: int64(size),
			})
		}
	}
	return delay
}

// NewFabric creates a fabric with nranks ranks, each owning a segment that
// starts at segSize bytes and grows on demand.
func NewFabric(eng *sim.Engine, mach *topo.Machine, nranks, segSize int) *Fabric {
	f := &Fabric{
		Eng:  eng,
		Mach: mach,
		segs: make([]*Segment, nranks),
		st:   make([]OpStats, nranks),
	}
	for i := range f.segs {
		f.segs[i] = newSegment(segSize)
	}
	return f
}

// Ranks returns the number of ranks.
func (f *Fabric) Ranks() int { return len(f.segs) }

// Seg returns rank's segment for direct local access (no simulated cost).
func (f *Fabric) Seg(rank int) *Segment { return f.segs[rank] }

// Stats returns the operation counters for one rank.
func (f *Fabric) Stats(rank int) OpStats { return f.st[rank] }

// TotalStats returns counters aggregated over all ranks.
func (f *Fabric) TotalStats() OpStats {
	var t OpStats
	for i := range f.st {
		t.Add(f.st[i])
	}
	return t
}

// Alloc allocates size bytes in rank's segment and returns the address.
// Allocation is a local operation performed by the owner; the simulated
// cost (Machine.AllocCost) is charged by the caller, not here.
func (f *Fabric) Alloc(rank, size int) Addr { return f.segs[rank].alloc(size) }

// AllocStatic allocates a block of size bytes in rank's *static zone*: a
// separate, never-freed address range (at StaticBase and up) intended for
// large fixed structures (queues, stack regions). Each block has its own
// backing, committed lazily from the block's start up to the highest byte
// touched, so a large reservation costs host memory only for what the rank
// uses of it, and touching one block never commits another. An access
// must lie within a single block.
func (f *Fabric) AllocStatic(rank, size int) Addr { return f.segs[rank].allocStatic(size) }

// Free returns a block previously obtained from Alloc to rank's free list.
func (f *Fabric) Free(rank int, addr Addr, size int) { f.segs[rank].free(addr, size) }

// shardOf returns the engine shard owning rank's node: nodes map onto the
// engine's per-node event heaps round-robin (0 for a single-heap engine).
func (f *Fabric) shardOf(rank int32) int {
	return f.Mach.NodeOf(int(rank)) % f.Eng.Shards()
}

// sched schedules a remote op's completion event on the shard that owns the
// target rank's node — the single cross-shard routing seam of the fabric.
// Every remote completion (chain link or fire-and-forget callback) goes
// through here; the memory access it performs belongs to the target node,
// so that is the heap the event must live on. On a single-heap engine this
// is exactly Engine.After.
func (f *Fabric) sched(to int32, d sim.Time, fn func()) {
	f.Eng.AfterOn(f.shardOf(to), d, fn)
}

// local reports whether the op is a same-rank access, counting it if so.
// Self-accesses carry no network latency and complete inline.
func (f *Fabric) local(from int, to int32) bool {
	if int32(from) == to {
		f.st[from].LocalOps++
		return true
	}
	return false
}

// checkGet and checkPut reject a transfer larger than the variable it
// names.
func checkGet(n int, loc Loc) {
	if int32(n) > loc.Size {
		panic(fmt.Sprintf("rdma: get of %d bytes from %v", n, loc))
	}
}

func checkPut(n int, loc Loc) {
	if int32(n) > loc.Size {
		panic(fmt.Sprintf("rdma: put of %d bytes to %v", n, loc))
	}
}

// GetAsync issues a get of len(dst) bytes from loc as one link of chain c:
// at the op's completion time the data lands in dst, then `then` runs,
// still within that event. A local get completes inline (no event). This is
// the split-phase form of the paper's "get v <- L".
//
// dst must stay untouched by the issuer until the callback runs — the
// issuer is normally parked in c.Wait for the duration.
func (f *Fabric) GetAsync(c *sim.Chain, from int, loc Loc, dst []byte, then func()) {
	checkGet(len(dst), loc)
	seg := f.segs[loc.Rank]
	if f.local(from, loc.Rank) {
		seg.read(loc.Addr, dst)
		then()
		return
	}
	f.st[from].Gets++
	f.st[from].BytesIn += uint64(len(dst))
	delay := f.remote(from, loc.Rank, obs.KindRDMAGet, len(dst), false)
	f.sched(loc.Rank, delay, func() {
		seg.read(loc.Addr, dst)
		then()
	})
}

// PutAsync issues a put of src to loc as one link of chain c: the remote
// memory becomes visible at the op's completion time, then `then` runs. src
// must stay stable until the callback runs (the issuer is normally parked
// in c.Wait). For the fire-and-forget put that only charges an injection
// cost, see PutNB.
func (f *Fabric) PutAsync(c *sim.Chain, from int, loc Loc, src []byte, then func()) {
	checkPut(len(src), loc)
	seg := f.segs[loc.Rank]
	if f.local(from, loc.Rank) {
		seg.write(loc.Addr, src)
		then()
		return
	}
	f.st[from].Puts++
	f.st[from].BytesOut += uint64(len(src))
	delay := f.remote(from, loc.Rank, obs.KindRDMAPut, len(src), false)
	f.sched(loc.Rank, delay, func() {
		seg.write(loc.Addr, src)
		then()
	})
}

// GetInt64Async reads the 8-byte little-endian word at loc as one link of
// chain c, delivering the value to `then` at the op's completion time.
func (f *Fabric) GetInt64Async(c *sim.Chain, from int, loc Loc, then func(v int64)) {
	seg := f.segs[loc.Rank]
	if f.local(from, loc.Rank) {
		then(seg.ReadInt64(loc.Addr))
		return
	}
	f.st[from].Gets++
	f.st[from].BytesIn += 8
	delay := f.remote(from, loc.Rank, obs.KindRDMAGet, 8, false)
	f.sched(loc.Rank, delay, func() { then(seg.ReadInt64(loc.Addr)) })
}

// PutInt64Async writes an 8-byte little-endian word to loc as one link of
// chain c; the word becomes visible at completion time, then `then` runs.
func (f *Fabric) PutInt64Async(c *sim.Chain, from int, loc Loc, v int64, then func()) {
	seg := f.segs[loc.Rank]
	if f.local(from, loc.Rank) {
		seg.WriteInt64(loc.Addr, v)
		then()
		return
	}
	f.st[from].Puts++
	f.st[from].BytesOut += 8
	delay := f.remote(from, loc.Rank, obs.KindRDMAPut, 8, false)
	f.sched(loc.Rank, delay, func() {
		seg.WriteInt64(loc.Addr, v)
		then()
	})
}

// FetchAddAsync atomically adds delta to the word at loc as one link of
// chain c; the read-modify-write applies at completion time and the prior
// value is delivered to `then`. Because the simulation is sequential, no
// other operation can interleave with the atomic.
func (f *Fabric) FetchAddAsync(c *sim.Chain, from int, loc Loc, delta int64, then func(old int64)) {
	seg := f.segs[loc.Rank]
	if f.local(from, loc.Rank) {
		then(seg.fetchAdd(loc.Addr, delta))
		return
	}
	f.st[from].Atomics++
	delay := f.remote(from, loc.Rank, obs.KindRDMAAtomic, 8, true)
	f.sched(loc.Rank, delay, func() { then(seg.fetchAdd(loc.Addr, delta)) })
}

// CASAsync atomically compares the word at loc with old and, if equal,
// replaces it with new, as one link of chain c. The observed value (== old
// on success) is delivered to `then` at the op's completion time.
func (f *Fabric) CASAsync(c *sim.Chain, from int, loc Loc, old, new int64, then func(observed int64)) {
	seg := f.segs[loc.Rank]
	if f.local(from, loc.Rank) {
		then(seg.cas(loc.Addr, old, new))
		return
	}
	f.st[from].Atomics++
	delay := f.remote(from, loc.Rank, obs.KindRDMAAtomic, 8, true)
	f.sched(loc.Rank, delay, func() { then(seg.cas(loc.Addr, old, new)) })
}

// The blocking operations below are park-until-complete wrappers over the
// async forms for remote targets. On the caller's own rank they perform the
// access inline and return: the async form would complete synchronously
// anyway, scheduling no event, so skipping the chain changes nothing in
// virtual time — it only saves the chain and the completion closure.

// Get copies the remote variable at loc into dst (len(dst) bytes, at most
// loc.Size), as issued by rank from — the paper's "get v <- L". Blocking
// park-until-complete wrapper over GetAsync.
func (f *Fabric) Get(p *sim.Proc, from int, loc Loc, dst []byte) {
	if f.local(from, loc.Rank) {
		checkGet(len(dst), loc)
		f.segs[loc.Rank].read(loc.Addr, dst)
		return
	}
	c := f.Eng.NewChain(p)
	f.GetAsync(c, from, loc, dst, c.Complete)
	c.Wait()
}

// Put copies src into the remote variable at loc, as issued by rank from —
// the paper's "put L <- v". The memory becomes visible at the operation's
// completion time. Blocking wrapper over PutAsync.
func (f *Fabric) Put(p *sim.Proc, from int, loc Loc, src []byte) {
	if f.local(from, loc.Rank) {
		checkPut(len(src), loc)
		f.segs[loc.Rank].write(loc.Addr, src)
		return
	}
	c := f.Eng.NewChain(p)
	f.PutAsync(c, from, loc, src, c.Complete)
	c.Wait()
}

// InjectCost is the local overhead of posting a nonblocking operation to
// the NIC without waiting for its completion.
const InjectCost = 200 * sim.Nanosecond

// PutNB issues a nonblocking (fire-and-forget) put: the issuer is charged
// only a small injection cost, and the remote memory is updated after the
// one-sided latency has elapsed, without the issuer ever observing the
// completion. This models the paper's nonblocking remote free-bit write
// (§III-B). src is snapshotted at issue time.
func (f *Fabric) PutNB(p *sim.Proc, from int, loc Loc, src []byte) {
	checkPut(len(src), loc)
	seg := f.segs[loc.Rank]
	if f.local(from, loc.Rank) {
		seg.write(loc.Addr, src)
		return
	}
	f.st[from].Puts++
	f.st[from].BytesOut += uint64(len(src))
	data := append([]byte(nil), src...)
	delay := f.remote(from, loc.Rank, obs.KindRDMAPut, len(src), false)
	f.sched(loc.Rank, delay, func() { seg.write(loc.Addr, data) })
	p.Sleep(InjectCost)
}

// GetInt64 reads an 8-byte little-endian word at loc. Blocking wrapper.
func (f *Fabric) GetInt64(p *sim.Proc, from int, loc Loc) int64 {
	if f.local(from, loc.Rank) {
		return f.segs[loc.Rank].ReadInt64(loc.Addr)
	}
	var out int64
	c := f.Eng.NewChain(p)
	f.GetInt64Async(c, from, loc, func(v int64) { out = v; c.Complete() })
	c.Wait()
	return out
}

// PutInt64 writes an 8-byte little-endian word at loc. Blocking wrapper.
func (f *Fabric) PutInt64(p *sim.Proc, from int, loc Loc, v int64) {
	if f.local(from, loc.Rank) {
		f.segs[loc.Rank].WriteInt64(loc.Addr, v)
		return
	}
	c := f.Eng.NewChain(p)
	f.PutInt64Async(c, from, loc, v, c.Complete)
	c.Wait()
}

// FetchAdd atomically adds delta to the 8-byte word at loc and returns the
// value it held before the addition ("fetch_and_add(L, v)"). Blocking
// wrapper over FetchAddAsync.
func (f *Fabric) FetchAdd(p *sim.Proc, from int, loc Loc, delta int64) int64 {
	if f.local(from, loc.Rank) {
		return f.segs[loc.Rank].fetchAdd(loc.Addr, delta)
	}
	var out int64
	c := f.Eng.NewChain(p)
	f.FetchAddAsync(c, from, loc, delta, func(v int64) { out = v; c.Complete() })
	c.Wait()
	return out
}

// CAS atomically compares the 8-byte word at loc with old and, if equal,
// replaces it with new. It returns the observed value (== old on success).
// Blocking wrapper over CASAsync.
func (f *Fabric) CAS(p *sim.Proc, from int, loc Loc, old, new int64) int64 {
	if f.local(from, loc.Rank) {
		return f.segs[loc.Rank].cas(loc.Addr, old, new)
	}
	var out int64
	c := f.Eng.NewChain(p)
	f.CASAsync(c, from, loc, old, new, func(v int64) { out = v; c.Complete() })
	c.Wait()
	return out
}

// Segment is one rank's registered memory, in two zones. The dynamic zone
// is a growable byte array with a simple size-bucketed free-list allocator
// on top. The static zone is a sequence of bump-allocated blocks (see
// AllocStatic), each with its own backing that grows lazily up to the
// block's size, so a large reservation costs host memory only for the
// prefix the rank actually touches. All Segment methods are zero-cost in
// simulated time; they model the owner touching its own pinned memory.
type Segment struct {
	mem   []byte
	bump  Addr
	pools map[int][]Addr // size -> free addresses (exact-size reuse)
	used  uint64         // bytes currently allocated
	high  uint64         // high-water mark of allocated bytes

	// Static zone: bump-only blocks at StaticBase and above, in address
	// order. A rank holds a handful of them (uni-address and evacuation
	// regions, deque, lock queue), so a linear search finds one.
	blocks []staticBlock
	sbump  Addr
}

// staticBlock is one static-zone reservation: [base, end), backed by mem
// for [base, base+len(mem)). mem grows on first touch and never past the
// block.
type staticBlock struct {
	base, end Addr
	mem       []byte
}

// StaticBase is the first address of the static zone. Dynamic addresses
// are always far below it.
const StaticBase Addr = 1 << 40

func newSegment(size int) *Segment {
	if size < 64 {
		size = 64
	}
	// Backing starts small regardless of the declared size and grows
	// lazily on first touch (bytes), so simulations with very many ranks
	// pay host memory only for what each rank actually uses.
	if size > 4*1024 {
		size = 4 * 1024
	}
	return &Segment{
		mem:   make([]byte, size),
		bump:  8, // keep address 0..7 unused so Addr 0 is invalid
		pools: make(map[int][]Addr),
	}
}

func (s *Segment) alloc(size int) Addr {
	if size <= 0 {
		panic("rdma: alloc of non-positive size")
	}
	// Round to 8 bytes so int64 fields are always aligned slots.
	size = (size + 7) &^ 7
	s.used += uint64(size)
	if s.used > s.high {
		s.high = s.used
	}
	if list := s.pools[size]; len(list) > 0 {
		a := list[len(list)-1]
		s.pools[size] = list[:len(list)-1]
		clear(s.bytes(a, size)) // bytes grows the backing if still untouched
		return a
	}
	a := s.bump
	s.bump += Addr(size)
	// Backing memory grows lazily on first access (see bytes).
	return a
}

func (s *Segment) allocStatic(size int) Addr {
	if size <= 0 {
		panic("rdma: alloc of non-positive size")
	}
	size = (size + 7) &^ 7
	a := StaticBase + s.sbump
	s.sbump += Addr(size)
	s.blocks = append(s.blocks, staticBlock{base: a, end: a + Addr(size)})
	return a
}

func (s *Segment) free(addr Addr, size int) {
	if addr == 0 {
		panic("rdma: free of nil address")
	}
	if addr >= StaticBase {
		panic("rdma: free of static allocation")
	}
	size = (size + 7) &^ 7
	s.used -= uint64(size)
	s.pools[size] = append(s.pools[size], addr)
}

// bytes returns the backing slice for [addr, addr+n), growing the backing
// of the dynamic zone, or of the static block holding addr, lazily (in
// power-of-two steps) on first touch. It never allocates once the bytes
// are backed.
func (s *Segment) bytes(addr Addr, n int) []byte {
	if addr == 0 {
		panic("rdma: access through nil address")
	}
	if addr >= StaticBase {
		return s.staticBytes(addr, n)
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(s.bump) {
		panic(fmt.Sprintf("rdma: access [0x%x,+%d) beyond allocated segment space (%d bytes)", uint64(addr), n, uint64(s.bump)))
	}
	if end > uint64(len(s.mem)) {
		s.mem = grow(s.mem, end, math.MaxUint64)
	}
	return s.mem[addr:end:end]
}

func (s *Segment) staticBytes(addr Addr, n int) []byte {
	if uint64(addr-StaticBase)+uint64(n) > uint64(s.sbump) {
		panic(fmt.Sprintf("rdma: static access [0x%x,+%d) beyond allocated space (%d bytes)", uint64(addr), n, uint64(s.sbump)))
	}
	i := len(s.blocks) - 1
	for s.blocks[i].base > addr {
		i--
	}
	b := &s.blocks[i]
	if uint64(b.end-addr) < uint64(n) {
		panic(fmt.Sprintf("rdma: static access [0x%x,+%d) crosses the end of block [0x%x,0x%x)",
			uint64(addr), n, uint64(b.base), uint64(b.end)))
	}
	off := uint64(addr - b.base)
	end := off + uint64(n)
	if end > uint64(len(b.mem)) {
		b.mem = grow(b.mem, end, uint64(b.end-b.base))
	}
	return b.mem[off:end:end]
}

// grow returns mem extended to the smallest power-of-two step (from 1 KB,
// or from doubling len(mem)) that covers need bytes, capped at limit, with
// the old contents copied over.
func grow(mem []byte, need, limit uint64) []byte {
	newLen := uint64(1024)
	if len(mem) > 0 {
		newLen = uint64(len(mem)) * 2
	}
	for newLen < need {
		newLen *= 2
	}
	newLen = min(newLen, limit)
	nm := make([]byte, newLen)
	copy(nm, mem)
	return nm
}

// Bytes exposes [addr, addr+n) of the segment for owner-local access.
func (s *Segment) Bytes(addr Addr, n int) []byte { return s.bytes(addr, n) }

// ReadInt64 reads a word locally (owner access, no simulated cost).
func (s *Segment) ReadInt64(addr Addr) int64 {
	return int64(binary.LittleEndian.Uint64(s.bytes(addr, 8)))
}

// WriteInt64 writes a word locally (owner access, no simulated cost).
func (s *Segment) WriteInt64(addr Addr, v int64) {
	binary.LittleEndian.PutUint64(s.bytes(addr, 8), uint64(v))
}

// read copies len(dst) bytes at addr into dst.
func (s *Segment) read(addr Addr, dst []byte) { copy(dst, s.bytes(addr, len(dst))) }

// write copies src to addr.
func (s *Segment) write(addr Addr, src []byte) { copy(s.bytes(addr, len(src)), src) }

// fetchAdd adds delta to the word at addr and returns its prior value.
func (s *Segment) fetchAdd(addr Addr, delta int64) int64 {
	b := s.bytes(addr, 8)
	old := int64(binary.LittleEndian.Uint64(b))
	binary.LittleEndian.PutUint64(b, uint64(old+delta))
	return old
}

// cas replaces the word at addr with new if it equals old, and returns the
// value it observed.
func (s *Segment) cas(addr Addr, old, new int64) int64 {
	b := s.bytes(addr, 8)
	cur := int64(binary.LittleEndian.Uint64(b))
	if cur == old {
		binary.LittleEndian.PutUint64(b, uint64(new))
	}
	return cur
}

// InUse returns the number of bytes currently allocated.
func (s *Segment) InUse() uint64 { return s.used }

// HighWater returns the allocation high-water mark in bytes.
func (s *Segment) HighWater() uint64 { return s.high }
