package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2500, "2500ns"},
		{25 * Microsecond, "25.00us"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2000.00ms"},
		{30 * Second, "30.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Errorf("Micros() = %v, want 2.5", got)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var done bool
	e.Go("a", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		if p.Now() != 10*Microsecond {
			t.Errorf("after sleep Now() = %v, want 10us", p.Now())
		}
		p.Sleep(5 * Microsecond)
		done = true
	})
	end := e.Run(Forever)
	if !done {
		t.Fatal("proc did not complete")
	}
	if end != 15*Microsecond {
		t.Errorf("Run returned %v, want 15us", end)
	}
}

func TestEventOrderingByTimeThenSeq(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func() { order = append(order, "b") })
	e.At(5, func() { order = append(order, "a") })
	e.At(10, func() { order = append(order, "c") }) // same time as b, scheduled later
	e.Run(Forever)
	want := "abc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Errorf("event order = %q, want %q", got, want)
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var got Time
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		p.Park()
		got = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(100)
		e.Wake(waiter)
	})
	e.Run(Forever)
	if got != 100 {
		t.Errorf("waiter resumed at %v, want 100", got)
	}
}

func TestWakeAfter(t *testing.T) {
	e := NewEngine()
	var got Time
	waiter := e.Go("waiter", func(p *Proc) {
		p.Park()
		got = p.Now()
	})
	e.After(50, func() { e.WakeAfter(waiter, 25) })
	e.Run(Forever)
	if got != 75 {
		t.Errorf("waiter resumed at %v, want 75", got)
	}
}

func TestWakeNonParkedPanics(t *testing.T) {
	e := NewEngine()
	p := e.Go("sleeper", func(p *Proc) { p.Sleep(1000) })
	e.Run(10) // p is scheduled, not parked
	defer func() {
		if recover() == nil {
			t.Error("Wake of non-parked proc did not panic")
		}
		e.Shutdown()
	}()
	e.Wake(p)
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(10, func() { fired = append(fired, 10) })
	e.At(20, func() { fired = append(fired, 20) })
	e.At(30, func() { fired = append(fired, 30) })
	end := e.Run(20)
	if end != 20 {
		t.Errorf("Run(20) = %v, want 20", end)
	}
	if len(fired) != 2 {
		t.Errorf("fired %d events before horizon, want 2", len(fired))
	}
	end = e.Run(Forever)
	if end != 30 || len(fired) != 3 {
		t.Errorf("resumed run: end=%v fired=%d, want 30, 3", end, len(fired))
	}

	// A horizon already in the past must not rewind the clock while events
	// are pending, or later relative delays would fire early.
	e.At(200, func() { fired = append(fired, 200) })
	if end = e.Run(100); end != 100 {
		t.Errorf("Run(100) = %v, want 100", end)
	}
	if end = e.Run(50); end != 100 || e.Now() != 100 {
		t.Errorf("Run(50) after Run(100): end=%v Now()=%v, want 100, 100", end, e.Now())
	}
	e.After(10, func() { fired = append(fired, e.Now()) })
	e.Run(Forever)
	if want := []Time{10, 20, 30, 110, 200}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
}

func TestRunHorizonAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	if end := e.Run(40); end != 40 {
		t.Errorf("Run(40) = %v, want 40", end)
	}
	if e.Now() != 40 {
		t.Errorf("Now() = %v, want 40", e.Now())
	}
	e.Run(Forever)
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run(Forever)
	if count != 1 {
		t.Errorf("processed %d events after Stop, want 1", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) { p.Park() })
	e.Run(Forever)
	if !e.Deadlocked() {
		t.Error("Deadlocked() = false for parked proc with empty queue")
	}
	if e.Parked() != 1 || e.Live() != 1 {
		t.Errorf("Parked=%d Live=%d, want 1, 1", e.Parked(), e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Errorf("Live after Shutdown = %d, want 0", e.Live())
	}
}

func TestShutdownKillsScheduledProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	reached := false
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(Second)
		reached = true
	})
	e.Run(100) // sleeper still scheduled
	e.Shutdown()
	if reached {
		t.Error("killed proc ran past its sleep")
	}
	if e.Live() != 0 {
		t.Errorf("Live = %d, want 0", e.Live())
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines: %d after Shutdown, %d before", n, base)
	}
}

func TestShutdownKillsNewProcs(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Go("never", func(p *Proc) { ran = true })
	e.Shutdown()
	if ran {
		t.Error("proc body ran despite Shutdown before Run")
	}
	if e.Live() != 0 {
		t.Errorf("Live = %d, want 0", e.Live())
	}
}

func TestGoAfter(t *testing.T) {
	e := NewEngine()
	var start Time = -1
	e.GoAfter(42, "late", func(p *Proc) { start = p.Now() })
	e.Run(Forever)
	if start != 42 {
		t.Errorf("proc started at %v, want 42", start)
	}
}

func TestProcSpawnsProc(t *testing.T) {
	e := NewEngine()
	var childStart Time = -1
	e.Go("parent", func(p *Proc) {
		p.Sleep(10)
		e.Go("child", func(c *Proc) { childStart = c.Now() })
		p.Sleep(10)
	})
	e.Run(Forever)
	if childStart != 10 {
		t.Errorf("child started at %v, want 10", childStart)
	}
}

func TestHandoffChain(t *testing.T) {
	// A ring of procs passing control via Park/Wake must execute in strict
	// round-robin order with no virtual time passing.
	e := NewEngine()
	const n = 5
	procs := make([]*Proc, n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		procs[i] = e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Park()
				order = append(order, i)
				if !(i == n-1 && round == 2) {
					e.Wake(procs[(i+1)%n])
				}
			}
		})
	}
	// At t=1 all procs have started and parked; kick off the ring.
	e.After(1, func() { e.Wake(procs[0]) })
	e.Run(Forever)
	counts := make([]int, n)
	for idx, v := range order {
		counts[v]++
		if idx > 0 && order[idx-1] == v {
			t.Fatalf("proc %d ran twice in a row at position %d", v, idx)
		}
	}
	for i, c := range counts {
		if c != 3 {
			t.Errorf("proc %d ran %d times, want 3", i, c)
		}
	}
	if e.Live() != 0 {
		e.Shutdown()
		t.Fatalf("procs leaked: %d live", e.Live())
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				// Re-park forever so the wrapper doesn't double-yield; in a
				// real panic the test would fail anyway. Simply return.
			}
		}()
		p.Sleep(-1)
	})
	e.Run(Forever)
	if !panicked {
		t.Error("negative sleep did not panic")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run(Forever)
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestDeterminism(t *testing.T) {
	// Two identical randomized simulations must produce identical traces.
	run := func(seed int64) []string {
		var trace []string
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			i := i
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Sleep(Time(rng.Intn(1000)))
					trace = append(trace, fmt.Sprintf("%d@%d", i, p.Now()))
				}
			})
		}
		e.Run(Forever)
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestHeapProperty(t *testing.T) {
	// Property: popping everything yields nondecreasing (time, seq).
	check := func(times []uint16) bool {
		var h eventHeap
		for i, tm := range times {
			h.push(event{t: Time(tm), seq: uint64(i)})
		}
		prevT, prevSeq := Time(-1), uint64(0)
		for len(h) > 0 {
			ev := h.pop()
			if ev.t < prevT || (ev.t == prevT && ev.seq < prevSeq) {
				return false
			}
			prevT, prevSeq = ev.t, ev.seq
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestManyProcsScale(t *testing.T) {
	// Smoke test: thousands of procs sleep-looping must complete and the
	// engine must end exactly at the max finish time.
	e := NewEngine()
	const n = 4096
	for i := 0; i < n; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			for j := 0; j <= i%7; j++ {
				p.Sleep(Time(i % 13))
			}
		})
	}
	e.Run(Forever)
	if e.Live() != 0 {
		t.Fatalf("%d procs leaked", e.Live())
	}
}

func TestTraceHook(t *testing.T) {
	e := NewEngine()
	var lines []string
	e.SetTrace(func(s string) { lines = append(lines, s) })
	e.Go("a", func(p *Proc) { p.Sleep(5) })
	e.At(3, func() {})
	e.Run(Forever)
	if len(lines) < 3 {
		t.Errorf("trace produced %d lines, want >= 3", len(lines))
	}
	e.SetTrace(nil)
}

func BenchmarkSleepEvent(b *testing.B) {
	e := NewEngine()
	e.Go("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run(Forever)
}

func BenchmarkCallbackEvent(b *testing.B) {
	e := NewEngine()
	var schedule func()
	n := 0
	schedule = func() {
		if n < b.N {
			n++
			e.After(1, schedule)
		}
	}
	e.After(1, schedule)
	b.ResetTimer()
	e.Run(Forever)
}

func TestProcPanicPropagatesToRunCaller(t *testing.T) {
	// A panic inside a proc body must surface from Engine.Run as a
	// *ProcPanic on the caller's goroutine (so embedders can recover it per
	// run), and every other proc must be torn down — no leaked goroutines.
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Go("bystander", func(p *Proc) { p.Park() })
	e.GoAfter(50, "bad", func(p *Proc) {
		p.Sleep(25)
		panic("boom")
	})
	defer func() {
		r := recover()
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
		}
		if pp.Proc != "bad" || pp.T != 75 || pp.Value != "boom" {
			t.Errorf("ProcPanic = %q t=%v value=%v, want bad/75/boom", pp.Proc, pp.T, pp.Value)
		}
		if len(pp.Stack) == 0 {
			t.Error("ProcPanic carries no stack")
		}
		if e.Live() != 0 {
			t.Errorf("%d procs alive after failed run; engine did not shut down", e.Live())
		}
		if n := countGoroutines(base); n > base {
			t.Errorf("goroutines: %d after failed run, %d before", n, base)
		}
	}()
	e.Run(Forever)
	t.Fatal("Run returned normally despite proc panic")
}

func TestChainTimingMatchesSleeps(t *testing.T) {
	// A chain of links must perform each access at the same virtual instant
	// as the equivalent Sleep sequence, and resume the proc exactly at the
	// final link's time.
	e := NewEngine()
	var accesses []Time
	var resumed Time
	e.Go("issuer", func(p *Proc) {
		c := e.NewChain(p)
		c.Then(10, func() {
			accesses = append(accesses, p.Now())
			c.Then(20, func() {
				accesses = append(accesses, p.Now())
				c.Complete()
			})
		})
		c.Wait()
		resumed = p.Now()
	})
	e.Run(Forever)
	if len(accesses) != 2 || accesses[0] != 10 || accesses[1] != 30 {
		t.Errorf("link accesses at %v, want [10 30]", accesses)
	}
	if resumed != 30 {
		t.Errorf("proc resumed at %v, want 30 (the final link's instant)", resumed)
	}
	st := e.Stats()
	if st.Callbacks != 2 {
		t.Errorf("Callbacks = %d, want 2 (one per link)", st.Callbacks)
	}
	if st.Handoffs != 2 {
		t.Errorf("Handoffs = %d, want 2 (proc start + single resume)", st.Handoffs)
	}
}

func TestChainSynchronousCompleteDoesNotPark(t *testing.T) {
	// A protocol whose steps all turn out to be immediate completes the
	// chain before Wait; the proc must not suspend and no event is consumed.
	e := NewEngine()
	var at Time = -1
	e.Go("local", func(p *Proc) {
		c := e.NewChain(p)
		c.Complete()
		c.Wait()
		at = p.Now()
	})
	e.Run(Forever)
	if at != 0 {
		t.Errorf("proc continued at %v, want 0 (no suspension)", at)
	}
}

func TestChainPooling(t *testing.T) {
	// Wait must release the chain for reuse: two sequential protocols on one
	// proc share a single Chain allocation.
	e := NewEngine()
	var c1, c2 *Chain
	e.Go("issuer", func(p *Proc) {
		c1 = e.NewChain(p)
		c1.Then(5, c1.Complete)
		c1.Wait()
		c2 = e.NewChain(p)
		c2.Then(5, c2.Complete)
		c2.Wait()
	})
	e.Run(Forever)
	if c1 != c2 {
		t.Error("second NewChain did not reuse the pooled chain released by Wait")
	}
}

func TestShutdownWithPendingChain(t *testing.T) {
	// Shutdown while a proc is parked mid-chain must unwind it cleanly: the
	// goroutine exits, the live count drops to zero, nothing panics.
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Go("issuer", func(p *Proc) {
		c := e.NewChain(p)
		c.Then(Second, c.Complete) // far in the future
		c.Wait()
		t.Error("proc resumed past Shutdown")
	})
	e.Run(100) // proc is now parked in Wait; the link is beyond the horizon
	if e.Parked() != 1 {
		t.Fatalf("Parked = %d, want 1 (issuer waiting on its chain)", e.Parked())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Errorf("Live = %d after Shutdown, want 0", e.Live())
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines: %d after Shutdown, %d before", n, base)
	}
}

func TestProcPanicFromCompletionCallback(t *testing.T) {
	// A panic inside a chain link runs in the dispatch loop of the issuer's
	// own goroutine, which suspended in Wait; Run must re-raise it as a
	// *ProcPanic attributed to "callback" and tear down the waiting proc.
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Go("issuer", func(p *Proc) {
		c := e.NewChain(p)
		c.Then(10, func() { panic("link boom") })
		c.Wait()
	})
	defer func() {
		r := recover()
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
		}
		if pp.Proc != "callback" || pp.T != 10 || pp.Value != "link boom" {
			t.Errorf("ProcPanic = %q t=%v value=%v, want callback/10/link boom",
				pp.Proc, pp.T, pp.Value)
		}
		if e.Live() != 0 {
			t.Errorf("%d procs alive after failed run", e.Live())
		}
		if n := countGoroutines(base); n > base {
			t.Errorf("goroutines: %d after failed run, %d before", n, base)
		}
	}()
	e.Run(Forever)
	t.Fatal("Run returned normally despite callback panic")
}

func TestRunHorizonMidChain(t *testing.T) {
	// A horizon that falls between two links must stop the engine with the
	// proc still parked; resuming the run completes the chain normally.
	e := NewEngine()
	var resumed Time = -1
	e.Go("issuer", func(p *Proc) {
		c := e.NewChain(p)
		c.Then(10, func() {
			c.Then(90, c.Complete)
		})
		c.Wait()
		resumed = p.Now()
	})
	if end := e.Run(50); end != 50 {
		t.Errorf("Run(50) = %v, want 50", end)
	}
	if resumed != -1 {
		t.Error("proc resumed before its final link fired")
	}
	if e.Parked() != 1 {
		t.Errorf("Parked = %d at horizon, want 1", e.Parked())
	}
	e.Run(Forever)
	if resumed != 100 {
		t.Errorf("proc resumed at %v, want 100", resumed)
	}
	if e.Live() != 0 {
		t.Errorf("Live = %d, want 0", e.Live())
	}
}

func TestEngineStatsDeterministic(t *testing.T) {
	// Host-side counters must be a pure function of the simulated program.
	run := func() EngineStats {
		e := NewEngine()
		for i := 0; i < 8; i++ {
			e.Go("w", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Time(j))
				}
				c := e.NewChain(p)
				c.Then(5, c.Complete)
				c.Wait()
			})
		}
		e.Run(Forever)
		return e.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("stats diverge across identical runs: %+v vs %+v", a, b)
	}
}

func BenchmarkEngineHandoff(b *testing.B) {
	// One Run-caller↔proc round trip per iteration: Run dispatches the wake
	// event into the proc, the proc parks, finds the queue empty and hands
	// control home. Two goroutine switches; a handoff from one proc to
	// another (BenchmarkProcToProc) takes one.
	e := NewEngine()
	p := e.Go("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Park()
		}
	})
	e.Run(Forever) // start the proc; it parks immediately
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Wake(p)
		e.Run(Forever)
	}
}

// BenchmarkProcToProc is a ping-pong of two procs, each waking the other
// and parking — the dominant shape of a UTS run. Every handoff goes
// straight from proc to proc, one goroutine switch; one iteration is two
// handoffs.
func BenchmarkProcToProc(b *testing.B) {
	e := NewEngine()
	var ping, pong *Proc
	pong = e.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Park()
			e.Wake(ping)
		}
	})
	ping = e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Wake(pong)
			p.Park()
		}
	})
	b.ResetTimer()
	e.Run(Forever)
}

func BenchmarkChainProtocol(b *testing.B) {
	// A five-link chain per iteration — the shape of a THE-protocol steal —
	// costing five callback events but only one proc handoff, which resumes
	// the thief on its own goroutine with no switch at all.
	e := NewEngine()
	e.Go("thief", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c := e.NewChain(p)
			k := 0
			var step func()
			step = func() {
				if k == 4 {
					c.Complete()
					return
				}
				k++
				c.Then(1, step)
			}
			c.Then(1, step)
			c.Wait()
		}
	})
	b.ResetTimer()
	e.Run(Forever)
}

func TestProcPanicRecoveredInBodyIsNotFatal(t *testing.T) {
	// A body that recovers its own panic keeps the simulation alive.
	e := NewEngine()
	ran := false
	e.Go("selfheal", func(p *Proc) {
		defer func() { recover() }()
		panic("contained")
	})
	e.GoAfter(10, "after", func(p *Proc) { ran = true })
	e.Run(Forever)
	if !ran {
		t.Error("simulation did not continue after a recovered proc panic")
	}
}
