package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"contsteal/internal/core"
	"contsteal/internal/experiments"
	"contsteal/internal/obs"
	"contsteal/internal/sim"
)

// setupReps is how many times a repetition builds its inputs to time
// set-up, each after a GC; the median is reported.
const setupReps = 9

// repOut is one timed repetition, as a child process reports it.
type repOut struct {
	Seed       int64 // simulator seed
	SetupS     float64
	WallS      float64
	AllocMB    float64
	RetainedMB float64
	Jobs       int
	Errors     []string
	V          virtual
}

// timedRep times one run of the workload with tracing off, on simulator
// seed seed.
func timedRep(w *spec, sz sizes, seed, nodes int64) repOut {
	setup := make([]float64, setupReps)
	for i := range setup {
		runtime.GC()
		t0 := time.Now()
		w.setup(sz, seed)
		setup[i] = time.Since(t0).Seconds()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r := w.run(sz, seed, nodes)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	// A cycle after the run marks what it leaves behind: the workload
	// memos. The largest live heap during the run depends on where GC
	// cycles fall (transient map copies double it for an instant), so it is
	// a per-layer figure of the traced run, not an end-to-end one.
	runtime.GC()
	return repOut{
		Seed:       seed,
		SetupS:     median(setup),
		WallS:      wall,
		AllocMB:    float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		RetainedMB: float64(liveHeap()) / 1e6,
		Jobs:       r.Jobs,
		Errors:     r.Errors,
		V:          r.V,
	}
}

// gcWatch tracks the largest live heap seen at the end of a GC cycle, from
// a finalizer that re-arms itself every cycle.
type gcWatch struct {
	mu   sync.Mutex
	peak uint64
	done bool
}

type gcSentinel struct {
	w *gcWatch
	_ *byte // pointerful, so it is not batched by the tiny allocator
}

func watchGC() *gcWatch {
	w := &gcWatch{peak: liveHeap()}
	w.arm()
	return w
}

func (w *gcWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{w: w}, func(s *gcSentinel) { s.w.cycle() })
}

func (w *gcWatch) cycle() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return
	}
	w.peak = max(w.peak, liveHeap())
	w.arm()
}

func (w *gcWatch) stop() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done = true
	return max(w.peak, liveHeap())
}

// liveHeap is the live heap marked by the last completed GC cycle.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracedOut is the traced run, as its child process reports it.
type tracedOut struct {
	Jobs   int
	Errors []string
	Layer  map[string]float64
	Spans  []span
}

// tracedRep is the traced run. It measures isolated unit costs, then runs
// the workload in passes, each a span under the root:
//
//	pass.cold     the timed run, as with tracing off (memos empty), also
//	              watched for the largest live heap at a GC end
//	pass.warm     the same again (memos filled)
//	pass.entry    the same with the experiments hooks timing each job
//	pass.layers   the jobs composed from calls into each layer
//	pass.count    the headline job with a counting obs.Tracer
//	pass.noobs    serve only: the cells with request tracing off
//
// Every pass must reproduce the cold pass's virtual results exactly.
func tracedRep(w *spec, sz sizes, simSeed, nodes int64) tracedOut {
	rec := newRecorder(fmt.Sprintf("%s simseed=%d", w.name, simSeed))
	out := tracedOut{Layer: map[string]float64{}}
	L := out.Layer
	root := rec.begin("run")

	L["sim.handoff_ns"] = probe(rec, "probe.sim.handoff", probeHandoff)
	L["sim.callback_ns"] = probe(rec, "probe.sim.callback", probeCallback)
	L["workload.hash_ns_per_node"], L["obs.record_ns_per_event"] = 0, 0
	tree := w.tree(sz)
	if tree != "" {
		id := rec.begin("probe.workload.CountSerial")
		t0 := time.Now()
		n := countSerial(tree)
		el := time.Since(t0)
		rec.end(id)
		if n != nodes {
			out.Errors = append(out.Errors, fmt.Sprintf("CountSerial(%s) = %d, parent counted %d", tree, n, nodes))
		}
		L["workload.hash_ns_per_node"] = float64(el.Nanoseconds()) / float64(n)
	}
	if w.obsTraced {
		L["obs.record_ns_per_event"] = probe(rec, "probe.obs.Recorder", probeRecord)
	}

	pass := func(name string, fn func() runOut) (runOut, time.Duration, int) {
		runtime.GC()
		id := rec.begin(name)
		t0 := time.Now()
		r := fn()
		el := time.Since(t0)
		rec.end(id)
		out.Jobs += r.Jobs
		out.Errors = append(out.Errors, r.Errors...)
		return r, el, id
	}
	same := func(name string, ok bool) {
		if !ok {
			out.Errors = append(out.Errors, "virtual results differ from pass.cold in "+name)
		}
	}

	var peak uint64
	cold, wallCold, _ := pass("pass.cold", func() runOut {
		gw := watchGC()
		defer func() { peak = gw.stop() }()
		return w.run(sz, simSeed, nodes)
	})
	L["host.peak_live_heap_mb"] = float64(peak) / 1e6
	warm, wallWarm, _ := pass("pass.warm", func() runOut { return w.run(sz, simSeed, nodes) })
	same("pass.warm", cold.V.equal(warm.V))

	experiments.Progress = func(_, _ int, _ experiments.Coord, wall time.Duration) { rec.add("experiments.job", wall) }
	experiments.EngineStats = func(_ experiments.Coord, _ sim.EngineStats, _ uint64, wall time.Duration) {
		rec.add("core.Runtime", wall)
	}
	var expID int
	entry, wallEntry, _ := pass("pass.entry", func() runOut {
		expID = rec.begin("experiments")
		defer rec.end(expID)
		return w.entry(sz, simSeed, nodes)
	})
	experiments.Progress, experiments.EngineStats = nil, nil
	same("pass.entry", slices.Equal(cold.V.Rows, entry.V.Rows))

	acc := &layerAcc{obsEvents: map[string]uint64{}}
	layers, wallLayers, layersID := pass("pass.layers", func() runOut { return w.layers(sz, simSeed, nodes, rec, acc) })
	same("pass.layers", cold.V.equal(layers.V))

	byLayer := acc.obsEvents
	if w.headline != nil {
		ct := newCountTracer()
		pass("pass.count", func() runOut {
			r := runOut{Jobs: 1}
			var row string
			err := guard("headline job with a counting tracer", func() { row = w.headline(sz, simSeed, ct) })
			if err != nil {
				r.fail("%v", err)
			}
			same("pass.count", err == nil && slices.Contains(cold.V.Rows, row))
			return r
		})
		byLayer = ct.byLayer
	}
	noobsID := -1
	if w.obsTraced {
		var noobs runOut
		noobs, _, noobsID = pass("pass.noobs", func() runOut { return serveRun(sz, simSeed, rec, nil, false) })
		same("pass.noobs", cold.V.equal(noobs.V))
	}
	rec.end(root)
	out.Spans = rec.finish()
	spans := out.Spans

	// Workload layer.
	L["workload.memo_fill_s"] = 0
	if tree != "" {
		L["workload.memo_fill_s"] = (wallCold - wallWarm).Seconds()
	}
	var gen time.Duration
	for _, n := range []string{"workload.UTS", "workload.RecPFor", "workload.GenServe"} {
		d, _ := sum(spans, layersID, n)
		gen += d
	}
	L["workload.gen_s"] = gen.Seconds()

	// Engine and runtime layers, from the layer pass's RunStats.
	_, runSelf := sum(spans, layersID, "core.Runtime.Run")
	_, serveSelf := sum(spans, layersID, "core.Runtime.Serve")
	coreRun := runSelf + serveSelf
	var es sim.EngineStats
	var ws core.WorkerStats
	var js core.JoinStats
	var remoteOps, rdmaBytes, reclaimed, remoteFrees, moves, movedBytes uint64
	var remoteTime sim.Time
	for _, st := range acc.core {
		es.Events += st.Engine.Events
		es.Handoffs += st.Engine.Handoffs
		es.Callbacks += st.Engine.Callbacks
		ws.Tasks += st.Work.Tasks
		ws.StealsOK += st.Work.StealsOK
		ws.StealsFail += st.Work.StealsFail
		ws.StealLatency += st.Work.StealLatency
		ws.Migrations += st.Work.Migrations
		js.Outstanding += st.Join.Outstanding
		js.OutstandingTime += st.Join.OutstandingTime
		js.Resumed += st.Join.Resumed
		remoteOps += st.Fabric.Gets + st.Fabric.Puts + st.Fabric.Atomics
		rdmaBytes += st.Fabric.BytesIn + st.Fabric.BytesOut
		remoteTime += st.Fabric.RemoteTime
		remoteFrees += st.Mem.RemoteFrees
		reclaimed += st.Mem.Swept + st.Mem.Drained
		moves += st.Stack.Evacuations + st.Stack.Restores + st.Stack.MigrationsIn
		movedBytes += st.Stack.BytesMoved
	}
	L["sim.events"] = float64(es.Events)
	L["sim.handoffs"] = float64(es.Handoffs)
	L["sim.callbacks"] = float64(es.Callbacks)
	L["sim.callback_frac"] = ratio(es.Callbacks, es.Events)
	L["sim.ns_per_event"] = ratio(uint64(coreRun.Nanoseconds()), es.Events)
	L["core.run_s"] = coreRun.Seconds()
	L["core.tasks"] = float64(ws.Tasks)
	L["core.steals_ok"] = float64(ws.StealsOK)
	L["core.steals_fail"] = float64(ws.StealsFail)
	L["core.steal_success"] = ratio(ws.StealsOK, ws.StealsOK+ws.StealsFail)
	L["core.steal_latency_us"] = ratio(uint64(ws.StealLatency), ws.StealsOK) / 1e3
	L["core.outstanding_joins"] = float64(js.Outstanding)
	L["core.oj_wait_us"] = ratio(uint64(js.OutstandingTime), js.Resumed) / 1e3
	L["core.migrations"] = float64(ws.Migrations)
	L["core.sojourn_p50_us"] = cold.V.P50US
	L["core.sojourn_p999_us"] = cold.V.P999US
	L["core.slo_frac"] = cold.V.SLOFrac
	L["core.trace_events"] = float64(byLayer["sched"] + byLayer["serve"])
	L["deque.trace_events"] = float64(byLayer["deque"])
	L["rdma.trace_events"] = float64(byLayer["rdma"] + byLayer["perturb"])
	L["rdma.remote_ops"] = float64(remoteOps)
	L["rdma.bytes_mb"] = float64(rdmaBytes) / 1e6
	L["rdma.remote_time_ms"] = float64(remoteTime) / 1e6
	L["remobj.trace_events"] = float64(byLayer["remobj"])
	L["remobj.remote_frees"] = float64(remoteFrees)
	L["remobj.reclaimed"] = float64(reclaimed)
	L["uniaddr.trace_events"] = float64(byLayer["uniaddr"])
	L["uniaddr.moves"] = float64(moves)
	L["uniaddr.bytes_mb"] = float64(movedBytes) / 1e6

	// Bag-of-tasks layer.
	_, botRun := sum(spans, layersID, "bot.RunSAWS")
	var botTasks int64
	var botOK, botFail, botMsgs uint64
	for _, st := range acc.bot {
		botTasks += st.Tasks
		botOK += st.StealsOK
		botFail += st.StealsFail
		botMsgs += st.Msgs
	}
	L["bot.run_s"] = botRun.Seconds()
	L["bot.tasks"] = float64(botTasks)
	L["bot.steal_success"] = ratio(botOK, botOK+botFail)
	L["bot.msgs"] = float64(botMsgs)
	L["bot.sojourn_p999_us"] = cold.V.BotP999US

	// Observability layer: what the workload's own tracing costs.
	var obsEvents uint64
	for _, n := range acc.obsEvents {
		obsEvents += n
	}
	var obsOverhead time.Duration
	if noobsID >= 0 {
		_, off := sum(spans, noobsID, "core.Runtime.Serve")
		obsOverhead = serveSelf - off
	}
	attribution, _ := sum(spans, layersID, "obs.attribution")
	L["obs.events"] = float64(obsEvents)
	L["obs.overhead_s"] = obsOverhead.Seconds()
	L["obs.attribution_s"] = attribution.Seconds()

	// Sweep layer and the benchmark's own tracing.
	expSelf := time.Duration(spans[expID].Self)
	L["experiments.self_s"] = expSelf.Seconds()
	L["bench.trace_overhead_s"] = (wallEntry - wallWarm).Seconds()

	// Host shares: each layer's time over the layer pass's wall plus the
	// memo fill that pass, running warm, did not pay. Engine time runs
	// inside Runtime.Run, where nothing is timed, so the sim share is an
	// estimate: the run's handoff and callback counts at the probes' unit
	// costs. The core share is the rest of the runtime's self time.
	base := wallLayers.Seconds() + max(L["workload.memo_fill_s"], 0)
	simEst := (float64(es.Handoffs)*L["sim.handoff_ns"] + float64(es.Callbacks)*L["sim.callback_ns"]) / 1e9
	L["share.workload"] = (max(L["workload.memo_fill_s"], 0) + gen.Seconds()) / base
	L["share.sim"] = simEst / base
	L["share.core"] = ((coreRun - obsOverhead).Seconds() - simEst) / base
	L["share.bot"] = botRun.Seconds() / base
	L["share.obs"] = (obsOverhead + attribution).Seconds() / base
	L["share.experiments"] = expSelf.Seconds() / base
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probe times fn under a span and returns its cost per operation in ns.
func probe(rec *recorder, name string, fn func() (ops int, el time.Duration)) float64 {
	id := rec.begin(name)
	defer rec.end(id)
	var per []float64
	for i := 0; i < 5; i++ {
		ops, el := fn()
		per = append(per, float64(el.Nanoseconds())/float64(ops))
	}
	return median(per)
}

// probeHandoff is a Park/Wake ping-pong: one proc handoff per operation.
func probeHandoff() (int, time.Duration) {
	const n = 100_000
	e := sim.NewEngine()
	p := e.Go("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Park()
		}
	})
	e.Run(sim.Forever) // the proc parks once
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e.Wake(p)
		e.Run(sim.Forever)
	}
	return n, time.Since(t0)
}

// probeCallback is a self-rescheduling After loop: one callback event per
// operation.
func probeCallback() (int, time.Duration) {
	const n = 500_000
	e := sim.NewEngine()
	k := 0
	var tick func()
	tick = func() {
		k++
		if k < n {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	t0 := time.Now()
	e.Run(sim.Forever)
	return n, time.Since(t0)
}

// probeRecord appends events to a fresh obs.Recorder.
func probeRecord() (int, time.Duration) {
	const n = 500_000
	r := obs.NewRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.Event(obs.Event{T: sim.Time(i), Dur: 10, Rank: i % 36, Kind: obs.KindCompute, Task: int64(i), Peer: -1})
	}
	return n, time.Since(t0)
}
