package deque

import (
	"testing"

	"contsteal/internal/sim"
)

// stealAllocs measures the average allocations of one steal attempt, run
// by a fresh proc on eng once earlier procs have put the deque in the
// state under test.
func stealAllocs(eng *sim.Engine, steal func(p *sim.Proc)) float64 {
	var avg float64
	eng.Go("thief", func(p *sim.Proc) {
		avg = testing.AllocsPerRun(100, func() { steal(p) })
	})
	eng.Run(sim.Forever)
	return avg
}

// TestFailedRemoteStealAllocs pins the host allocations of a failed remote
// steal attempt. Attempt records are pooled per deque with their link
// callbacks bound once, so what remains is one completion closure per
// remote fabric op: one for an empty attempt (the header get), two for a
// contended one (header get, lock CAS). Any closure or record creeping
// back onto the steal path fails this.
func TestFailedRemoteStealAllocs(t *testing.T) {
	t.Run("empty Steal", func(t *testing.T) {
		eng, d := setup(2)
		avg := stealAllocs(eng, func(p *sim.Proc) {
			if _, _, ok := d.Steal(p, 1); ok {
				t.Error("steal from an empty deque succeeded")
			}
		})
		if avg != 1 {
			t.Errorf("empty remote Steal allocates %.1f times, want 1", avg)
		}
	})
	t.Run("empty StealN", func(t *testing.T) {
		eng, d := setup(2)
		avg := stealAllocs(eng, func(p *sim.Proc) {
			if _, _, ok := d.StealN(p, 1, stealHalf); ok {
				t.Error("steal from an empty deque succeeded")
			}
		})
		if avg != 1 {
			t.Errorf("empty remote StealN allocates %.1f times, want 1", avg)
		}
	})
	t.Run("contended Steal", func(t *testing.T) {
		eng, d := setup(2)
		eng.Go("owner", func(p *sim.Proc) {
			d.Push(p, mk(1), nil)
			d.ownerLock(p) // held for the whole run: every thief loses the CAS
		})
		eng.Run(sim.Forever)
		avg := stealAllocs(eng, func(p *sim.Proc) {
			if _, _, ok := d.Steal(p, 1); ok {
				t.Error("steal against a held lock succeeded")
			}
		})
		if avg != 2 {
			t.Errorf("contended remote Steal allocates %.1f times, want 2", avg)
		}
	})
}
