package rdma

import (
	"strings"
	"testing"

	"contsteal/internal/sim"
)

// TestLocalBlockingOpsAllocFree pins the host cost of a rank touching its
// own memory through the blocking fabric API: in both zones, every local
// op returns inline without a chain or a closure, so it allocates nothing
// (once the backing is touched), schedules no event, and is still counted
// in LocalOps.
func TestLocalBlockingOpsAllocFree(t *testing.T) {
	eng, f := newTestFabric(1000, 2)
	zones := []struct {
		name string
		addr Addr
	}{
		{"dynamic", f.Alloc(0, 16)},
		{"static", f.AllocStatic(0, 16)},
	}
	buf := make([]byte, 16)
	const runs = 100
	var ops int
	eng.Go("w0", func(p *sim.Proc) {
		for _, z := range zones {
			loc := Loc{Rank: 0, Addr: z.addr, Size: 16}
			word := Loc{Rank: 0, Addr: z.addr, Size: 8}
			cases := []struct {
				name string
				op   func()
			}{
				{"Get", func() { f.Get(p, 0, loc, buf) }},
				{"Put", func() { f.Put(p, 0, loc, buf) }},
				{"GetInt64", func() { f.GetInt64(p, 0, word) }},
				{"PutInt64", func() { f.PutInt64(p, 0, word, 7) }},
				{"FetchAdd", func() { f.FetchAdd(p, 0, word, 1) }},
				{"CAS", func() { f.CAS(p, 0, word, 0, 1) }},
			}
			for _, c := range cases {
				// AllocsPerRun makes one warm-up call before the measured ones.
				if avg := testing.AllocsPerRun(runs, c.op); avg != 0 {
					t.Errorf("%s zone: local %s allocates %.1f times per op, want 0", z.name, c.name, avg)
				}
				ops += runs + 1
			}
		}
	})
	eng.Run(sim.Forever)
	if eng.Now() != 0 {
		t.Errorf("local ops advanced the clock to %v, want 0", eng.Now())
	}
	if st := f.Stats(0); st.LocalOps != uint64(ops) || st.Gets+st.Puts+st.Atomics != 0 {
		t.Errorf("stats = %+v, want %d local ops only", st, ops)
	}
}

// committed returns the host bytes backing the segment's static blocks.
func (s *Segment) committed() int {
	n := 0
	for _, b := range s.blocks {
		n += len(b.mem)
	}
	return n
}

// TestStaticBlockBackingIsPerBlock checks that static blocks are backed
// independently and lazily: touching the first word of a large block
// allocated after another large block commits only a small prefix of it,
// nothing of the earlier block, and a block's backing never outgrows it.
func TestStaticBlockBackingIsPerBlock(t *testing.T) {
	_, f := newTestFabric(0, 1)
	s := f.Seg(0)
	uni := f.AllocStatic(0, 4<<20)
	evac := f.AllocStatic(0, 16<<20)
	s.WriteInt64(evac, 42)
	if c := s.committed(); c > 4<<10 {
		t.Errorf("first word of a 16 MB block committed %d bytes, want at most 4 KB", c)
	}
	s.WriteInt64(uni+8, 7)
	if c := s.committed(); c > 8<<10 {
		t.Errorf("first words of two blocks committed %d bytes, want at most 8 KB", c)
	}

	// Growth keeps the contents and stops at the block's end.
	small := f.AllocStatic(0, 3000)
	s.WriteInt64(small, 1)
	s.WriteInt64(small+2992, 2)
	if got := len(s.blocks[2].mem); got != 3000 {
		t.Errorf("3000-byte block backed by %d bytes after touching its last word", got)
	}
	if s.ReadInt64(small) != 1 || s.ReadInt64(small+2992) != 2 || s.ReadInt64(evac) != 42 || s.ReadInt64(uni+8) != 7 {
		t.Error("static backing lost data while growing")
	}
}

// TestStaticAccessOutsideBlockPanics checks the two static-zone bounds: an
// access may not run from one block into the next, nor past the end of
// the zone.
func TestStaticAccessOutsideBlockPanics(t *testing.T) {
	_, f := newTestFabric(0, 1)
	a := f.AllocStatic(0, 64)
	b := f.AllocStatic(0, 64)
	cases := []struct {
		name string
		addr Addr
		want string
	}{
		{"across blocks", a + 56, "crosses the end of block"},
		{"past the zone", b + 56, "beyond allocated space"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: recovered %v, want a panic containing %q", c.name, r, c.want)
				}
			}()
			f.Seg(0).Bytes(c.addr, 16)
		}()
	}
}
