package main

import (
	"fmt"
	"slices"
	"sort"

	"contsteal/internal/bot"
	"contsteal/internal/core"
	"contsteal/internal/experiments"
	"contsteal/internal/obs"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/workload"
)

// sizes fixes every workload's input size; fullSize is what the benchmark
// measures and tinySize what its tests run.
type sizes struct {
	FineTree     string
	FineWorkers  int
	FineSeq      int
	SweepTree    string
	SweepWorkers []int
	SweepSeq     int
	RecN         int
	RecWorkers   int
	ServeReqs    int
	ServeWorkers int
}

var fullSize = sizes{
	FineTree: "T1XXL'", FineWorkers: 72, FineSeq: 6,
	SweepTree: "T1WL'", SweepWorkers: []int{12, 24, 96}, SweepSeq: 10,
	RecN: 512, RecWorkers: 72,
	ServeReqs: 8192, ServeWorkers: 36,
}

var tinySize = sizes{
	FineTree: "T1L'", FineWorkers: 18, FineSeq: 6,
	SweepTree: "T1L'", SweepWorkers: []int{6, 12}, SweepSeq: 6,
	RecN: 64, RecWorkers: 18,
	ServeReqs: 256, ServeWorkers: 18,
}

// The serve workload's fixed grid and latency limit.
var (
	serveSystems   = []string{"ours", "saws"}
	serveProcesses = []string{"poisson", "mmpp"}
	serveLoads     = []float64{1, 2}
)

const (
	serveAdmit = "token"
	sloLimit   = 50 * sim.Microsecond
)

// virtual is the model's output for one run of a workload: the headline
// figures plus one canonical line per job, which every pass of the traced
// run must reproduce exactly.
type virtual struct {
	VExecMS    float64
	Efficiency float64
	Rows       []string
	// Serve-only pooled figures (zero elsewhere).
	P50US, P999US, SLOFrac, BotP999US float64
}

func (v virtual) equal(o virtual) bool {
	return v.VExecMS == o.VExecMS && v.Efficiency == o.Efficiency && v.P50US == o.P50US &&
		v.P999US == o.P999US && v.SLOFrac == o.SLOFrac && v.BotP999US == o.BotP999US &&
		slices.Equal(v.Rows, o.Rows)
}

// runOut is one run of a workload: its jobs, the failed ones, and the
// model's output.
type runOut struct {
	Jobs   int
	Errors []string
	V      virtual
}

func (r *runOut) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// layerAcc collects what the layer-level pass of the traced run observes
// through the public stats structs.
type layerAcc struct {
	core      []core.RunStats
	bot       []bot.Stats
	obsEvents map[string]uint64 // request-trace events by obs layer (serve)
}

// spec is one benchmark workload.
type spec struct {
	name string
	// tree names the UTS tree whose serial count is the oracle ("" if none).
	tree func(sizes) string
	jobs func(sizes) int
	// setup builds every job's inputs and runtime, up to the first
	// simulated event, and discards them.
	setup func(sz sizes, seed int64)
	// run is the timed run, through the entry points cmd/repro uses.
	run func(sz sizes, seed, nodes int64) runOut
	// entry is the same run through the experiments sweep layer, whose
	// hooks the traced run uses to time jobs from outside.
	entry func(sz sizes, seed, nodes int64) runOut
	// layers composes the same jobs from calls into each layer, recording
	// a span around each call.
	layers func(sz sizes, seed, nodes int64, rec *recorder, acc *layerAcc) runOut
	// headline reruns the headline job with tr attached and returns its
	// row. Nil for serve, whose layer pass already records a trace.
	headline func(sz sizes, seed int64, tr obs.Tracer) string
	// obsTraced marks a workload whose timed run has obs tracing on.
	obsTraced bool
}

var workloads = []*spec{
	{
		name:  "uts_fine",
		tree:  func(sz sizes) string { return sz.FineTree },
		jobs:  func(sizes) int { return 1 },
		setup: func(sz sizes, seed int64) { utsSetup(sz.FineTree, "itoa", []int{sz.FineWorkers}, sz.FineSeq, seed) },
		run:   utsFineRun,
		entry: utsFineRun,
		layers: func(sz sizes, seed, nodes int64, rec *recorder, acc *layerAcc) runOut {
			return utsLayers(sz.FineTree, "itoa", []int{sz.FineWorkers}, sz.FineSeq, seed, nodes, rec, acc)
		},
		headline: func(sz sizes, seed int64, tr obs.Tracer) string {
			return utsHeadline(sz.FineTree, "itoa", sz.FineWorkers, sz.FineSeq, seed, tr)
		},
	},
	{
		name:  "uts_sweep_cold",
		tree:  func(sz sizes) string { return sz.SweepTree },
		jobs:  func(sz sizes) int { return len(sz.SweepWorkers) },
		setup: func(sz sizes, seed int64) { utsSetup(sz.SweepTree, "wisteria", sz.SweepWorkers, sz.SweepSeq, seed) },
		run:   utsSweepRun,
		entry: utsSweepRun,
		layers: func(sz sizes, seed, nodes int64, rec *recorder, acc *layerAcc) runOut {
			return utsLayers(sz.SweepTree, "wisteria", sz.SweepWorkers, sz.SweepSeq, seed, nodes, rec, acc)
		},
		headline: func(sz sizes, seed int64, tr obs.Tracer) string {
			return utsHeadline(sz.SweepTree, "wisteria", slices.Max(sz.SweepWorkers), sz.SweepSeq, seed, tr)
		},
	},
	{
		name:     "recpfor_variants",
		tree:     func(sizes) string { return "" },
		jobs:     func(sizes) int { return len(experiments.Variants()) },
		setup:    recSetup,
		run:      recRun,
		entry:    recRun,
		layers:   recLayers,
		headline: recHeadline,
	},
	{
		name:  "serve_open",
		tree:  func(sizes) string { return "" },
		jobs:  func(sizes) int { return len(serveSystems) * len(serveProcesses) * len(serveLoads) },
		setup: serveSetup,
		run:   func(sz sizes, seed, _ int64) runOut { return serveRun(sz, seed, nil, nil, true) },
		entry: serveEntry,
		layers: func(sz sizes, seed, _ int64, rec *recorder, acc *layerAcc) runOut {
			return serveRun(sz, seed, rec, acc, true)
		},
		obsTraced: true,
	},
}

func workloadByName(name string) (*spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// countSerial is the UTS oracle: the tree's node count from a serial walk
// that bypasses the runtime and the memos.
func countSerial(tree string) int64 { return experiments.TreeByName(tree).CountSerial() }

// coreConfig mirrors the runtime configuration the experiments package
// builds for one scheduler variant, so layer-level jobs reproduce the
// entry points' results exactly.
func coreConfig(machine string, workers int, v experiments.Variant, seed int64) core.Config {
	return core.Config{
		Machine:    experiments.MachineByName(machine),
		Workers:    workers,
		Policy:     v.Policy,
		RemoteFree: v.Free,
		Seed:       seed,
		MaxTime:    1800 * sim.Second,
	}
}

var greedy = experiments.Variant{Name: "greedy", Policy: core.ContGreedy, Free: remobj.LocalCollection}

// ---------------------------------------------------------------------------
// UTS: uts_fine (one configuration) and uts_sweep_cold (fig9 shape)
// ---------------------------------------------------------------------------

func utsRow(r experiments.Fig8Row) string {
	return fmt.Sprintf("workers=%d nodes=%d exec=%d eff=%v", r.Workers, r.Nodes, r.ExecTime, r.Efficiency)
}

// utsCheck applies the node-count oracle to each row and fills the
// headline figures from the row with the most workers.
func utsCheck(out *runOut, rows []experiments.Fig8Row, nodes int64) {
	var head experiments.Fig8Row
	for _, r := range rows {
		if r.Nodes != nodes {
			out.fail("uts %s workers=%d: %d nodes, serial count %d", r.Tree, r.Workers, r.Nodes, nodes)
		}
		if r.Workers >= head.Workers {
			head = r
		}
		out.V.Rows = append(out.V.Rows, utsRow(r))
	}
	out.V.VExecMS = float64(head.ExecTime) / float64(sim.Millisecond)
	out.V.Efficiency = head.Efficiency
}

func utsFineRun(sz sizes, seed, nodes int64) runOut {
	out := runOut{Jobs: 1}
	var row experiments.Fig8Row
	o := experiments.Options{Machine: "itoa", Seed: seed, Parallel: 1}
	if err := guard("uts_fine", func() { row = experiments.UTSOnce(o, "ours", sz.FineTree, sz.FineWorkers, sz.FineSeq) }); err != nil {
		out.fail("%v", err)
		return out
	}
	utsCheck(&out, []experiments.Fig8Row{row}, nodes)
	return out
}

func utsSweepRun(sz sizes, seed, nodes int64) runOut {
	out := runOut{Jobs: len(sz.SweepWorkers)}
	var rows []experiments.Fig8Row
	o := experiments.Options{Machine: "wisteria", Seed: seed, Parallel: 1}
	if err := guard("uts_sweep_cold", func() { rows = experiments.Fig9(o, sz.SweepTree, sz.SweepWorkers, sz.SweepSeq) }); err != nil {
		for range sz.SweepWorkers {
			out.fail("%v", err)
		}
		return out
	}
	utsCheck(&out, rows, nodes)
	return out
}

func utsSetup(tree, machine string, workers []int, seq int, seed int64) {
	for _, w := range workers {
		_ = workload.UTS(experiments.TreeByName(tree), seq)
		_ = core.New(coreConfig(machine, w, greedy, seed))
	}
}

// utsJob runs one UTS configuration layer by layer.
func utsJob(rec *recorder, tree, machine string, workers, seq int, seed int64, tr obs.Tracer) (experiments.Fig8Row, core.RunStats) {
	id := rec.begin("workload.UTS")
	t := experiments.TreeByName(tree)
	task := workload.UTS(t, seq)
	rec.end(id)
	cfg := coreConfig(machine, workers, greedy, seed)
	cfg.Tracer = tr
	id = rec.begin("core.New")
	rt := core.New(cfg)
	rec.end(id)
	id = rec.begin("core.Runtime.Run")
	ret, st := rt.Run(task)
	rec.end(id)
	nodes := core.RetInt64(ret)
	serial := experiments.UTSSerialTime(experiments.MachineByName(machine), t, nodes)
	return experiments.Fig8Row{
		System: "ours", Tree: t.Name, Machine: machine, Workers: workers, Nodes: nodes,
		ExecTime:   st.ExecTime,
		Efficiency: float64(serial) / float64(st.ExecTime) / float64(workers),
	}, st
}

func utsLayers(tree, machine string, workers []int, seq int, seed, nodes int64, rec *recorder, acc *layerAcc) runOut {
	out := runOut{Jobs: len(workers)}
	var rows []experiments.Fig8Row
	for _, w := range workers {
		var row experiments.Fig8Row
		var st core.RunStats
		if err := guard(fmt.Sprintf("uts %s workers=%d", tree, w), func() { row, st = utsJob(rec, tree, machine, w, seq, seed, nil) }); err != nil {
			out.fail("%v", err)
			continue
		}
		rows = append(rows, row)
		acc.core = append(acc.core, st)
	}
	utsCheck(&out, rows, nodes)
	return out
}

func utsHeadline(tree, machine string, workers, seq int, seed int64, tr obs.Tracer) string {
	row, _ := utsJob(nil, tree, machine, workers, seq, seed, tr)
	return utsRow(row)
}

// ---------------------------------------------------------------------------
// recpfor_variants: RecPFor under the five fig6 scheduler variants
// ---------------------------------------------------------------------------

func recRow(r experiments.Fig6Row) string {
	return fmt.Sprintf("variant=%s n=%d ideal=%d exec=%d eff=%v", r.Variant, r.N, r.IdealTime, r.ExecTime, r.Efficiency)
}

// recCheck applies the work-bound oracle (ExecTime >= T1/P) and takes the
// headline figures from the greedy (cont-greedy) variant.
func recCheck(out *runOut, rows []experiments.Fig6Row) {
	for _, r := range rows {
		if r.ExecTime <= 0 || r.ExecTime < r.IdealTime {
			out.fail("recpfor %s: exec %v below T1/P %v", r.Variant, r.ExecTime, r.IdealTime)
		}
		if r.Variant == greedy.Name {
			out.V.VExecMS = float64(r.ExecTime) / float64(sim.Millisecond)
			out.V.Efficiency = r.Efficiency
		}
		out.V.Rows = append(out.V.Rows, recRow(r))
	}
}

func recRun(sz sizes, seed, _ int64) runOut {
	out := runOut{Jobs: len(experiments.Variants())}
	var rows []experiments.Fig6Row
	o := experiments.Options{Machine: "itoa", Workers: sz.RecWorkers, Seed: seed, Parallel: 1}
	if err := guard("recpfor_variants", func() { rows = experiments.Fig6(o, "recpfor", []int{sz.RecN}) }); err != nil {
		for range experiments.Variants() {
			out.fail("%v", err)
		}
		return out
	}
	recCheck(&out, rows)
	return out
}

func recSetup(sz sizes, seed int64) {
	for _, v := range experiments.Variants() {
		_ = workload.RecPFor(workload.DefaultPForParams(sz.RecN))
		_ = core.New(coreConfig("itoa", sz.RecWorkers, v, seed))
	}
}

func recJob(rec *recorder, sz sizes, v experiments.Variant, seed int64, tr obs.Tracer) (experiments.Fig6Row, core.RunStats) {
	id := rec.begin("workload.RecPFor")
	p := workload.DefaultPForParams(sz.RecN)
	task := workload.RecPFor(p)
	t1 := experiments.MachineByName("itoa").Compute(p.T1RecPFor())
	rec.end(id)
	cfg := coreConfig("itoa", sz.RecWorkers, v, seed)
	cfg.Tracer = tr
	id = rec.begin("core.New")
	rt := core.New(cfg)
	rec.end(id)
	id = rec.begin("core.Runtime.Run")
	_, st := rt.Run(task)
	rec.end(id)
	return experiments.Fig6Row{
		Bench: "recpfor", Machine: "itoa", Variant: v.Name, N: sz.RecN,
		IdealTime: t1 / sim.Time(sz.RecWorkers), ExecTime: st.ExecTime, Efficiency: st.Efficiency(t1),
	}, st
}

func recLayers(sz sizes, seed, _ int64, rec *recorder, acc *layerAcc) runOut {
	out := runOut{Jobs: len(experiments.Variants())}
	var rows []experiments.Fig6Row
	for _, v := range experiments.Variants() {
		var row experiments.Fig6Row
		var st core.RunStats
		if err := guard("recpfor "+v.Name, func() { row, st = recJob(rec, sz, v, seed, nil) }); err != nil {
			out.fail("%v", err)
			continue
		}
		rows = append(rows, row)
		acc.core = append(acc.core, st)
	}
	recCheck(&out, rows)
	return out
}

func recHeadline(sz sizes, seed int64, tr obs.Tracer) string {
	row, _ := recJob(nil, sz, greedy, seed, tr)
	return recRow(row)
}

// ---------------------------------------------------------------------------
// serve_open: open loop in virtual time, ours and saws
// ---------------------------------------------------------------------------

func serveOptions(sz sizes, seed int64) (experiments.Options, experiments.ServeParams) {
	o := experiments.Options{Machine: "itoa", Workers: sz.ServeWorkers, Seed: seed, Parallel: 1}
	p := experiments.ServeParams{
		Requests: sz.ServeReqs, Loads: serveLoads, Systems: serveSystems,
		Processes: serveProcesses, Admits: []string{serveAdmit},
		NodeWork: 190, MaxFanout: 3, MaxDepth: 3, AdmitRate: 0.9, AdmitBurst: 16,
	}
	return o, p
}

// serveInputs generates one cell's arrivals and applies token admission,
// as experiments.ServeOnce does, from the cell's seed.
func serveInputs(sz sizes, seed int64, process string, load float64) (offered []workload.ServeReq, admitted []workload.ServeReq) {
	o, p := serveOptions(sz, seed)
	capacity := p.CapacityRps(o)
	offered = workload.GenServe(workload.ServeSpec{
		Process: process, RateRps: load * capacity, Requests: p.Requests, Seed: seed,
		MaxFanout: p.MaxFanout, MaxDepth: p.MaxDepth, NodeWork: p.NodeWork,
	})
	adm := workload.TokenBucket(p.AdmitBurst, p.AdmitRate*capacity)
	admitted = make([]workload.ServeReq, 0, len(offered))
	for _, r := range offered {
		if adm.Admit(r.At) {
			admitted = append(admitted, r)
		}
	}
	return offered, admitted
}

func coreRequests(admitted []workload.ServeReq) []core.Request {
	reqs := make([]core.Request, len(admitted))
	for i, r := range admitted {
		reqs[i] = core.Request{ID: r.ID, At: r.At, Fn: workload.ServeDAG(r.Fanout, r.Depth, 190)}
	}
	return reqs
}

func botArrivals(admitted []workload.ServeReq, workers int) []bot.ServeArrival {
	arr := make([]bot.ServeArrival, len(admitted))
	for i, r := range admitted {
		arr[i] = bot.ServeArrival{At: r.At, Rank: i % workers, Task: bot.ServeTask(r.ID, r.Fanout, r.Depth)}
	}
	return arr
}

func serveSetup(sz sizes, seed int64) {
	for _, system := range serveSystems {
		for _, process := range serveProcesses {
			for _, load := range serveLoads {
				_, admitted := serveInputs(sz, seed, process, load)
				if system == "ours" {
					_ = coreRequests(admitted)
					_ = core.New(coreConfig("itoa", sz.ServeWorkers, greedy, seed))
				} else {
					_ = botArrivals(admitted, sz.ServeWorkers)
				}
			}
		}
	}
}

// serveCellRow is the canonical line of one cell, built alike from the
// layer-level run and from experiments.ServeRow.
func serveCellRow(system, process string, load float64, admitted, rejected, completed uint64, p50, p99, p999, maxS, makespan sim.Time) string {
	return fmt.Sprintf("%s %s %s load=%g admitted=%d rejected=%d completed=%d p50=%d p99=%d p999=%d max=%d makespan=%d",
		system, process, serveAdmit, load, admitted, rejected, completed, p50, p99, p999, maxS, makespan)
}

func sortedRow(system, process string, load float64, offered, admitted int, soj []sim.Time, makespan sim.Time) string {
	sort.Slice(soj, func(i, j int) bool { return soj[i] < soj[j] })
	var p50, p99, p999, mx sim.Time
	if len(soj) > 0 {
		p50, p99, p999 = core.Percentile(soj, 0.5), core.Percentile(soj, 0.99), core.Percentile(soj, 0.999)
		mx = soj[len(soj)-1]
	}
	return serveCellRow(system, process, load, uint64(admitted), uint64(offered-admitted), uint64(len(soj)), p50, p99, p999, mx, makespan)
}

// serveRun runs the grid cell by cell through the core, bot and workload
// layers, with request tracing on the ours cells when reqTrace is set (the
// default of the serve experiment). The pooled per-request sojourns it
// reports are not exposed by experiments.ServeRow, which is why this
// workload is driven below the sweep layer.
func serveRun(sz sizes, seed int64, rec *recorder, acc *layerAcc, reqTrace bool) runOut {
	out := runOut{Jobs: len(serveSystems) * len(serveProcesses) * len(serveLoads)}
	mach := experiments.MachineByName("itoa")
	perNode := mach.Compute(190) + mach.SpawnCost + mach.AllocCost + 4*mach.LocalOp
	var ours, saws []sim.Time
	var oursOffered int
	for _, system := range serveSystems {
		for _, process := range serveProcesses {
			for _, load := range serveLoads {
				cell := fmt.Sprintf("serve %s %s %s load=%g", system, process, serveAdmit, load)
				err := guard(cell, func() {
					id := rec.begin("workload.GenServe")
					offered, admitted := serveInputs(sz, seed, process, load)
					rec.end(id)
					var soj []sim.Time
					var makespan sim.Time
					if system == "ours" {
						oursOffered += len(offered)
						soj, makespan = serveOurs(&out, rec, acc, sz, seed, cell, admitted, reqTrace)
						ours = append(ours, soj...)
						if process == "poisson" && load == 1 {
							var nodes int64
							for _, r := range admitted {
								nodes += r.Nodes()
							}
							out.V.VExecMS = float64(makespan) / float64(sim.Millisecond)
							out.V.Efficiency = float64(sim.Time(nodes)*perNode) / float64(makespan) / float64(sz.ServeWorkers)
						}
					} else {
						soj, makespan = serveSAWS(&out, rec, acc, sz, seed, cell, admitted)
						saws = append(saws, soj...)
					}
					out.V.Rows = append(out.V.Rows, sortedRow(system, process, load, len(offered), len(admitted), soj, makespan))
				})
				if err != nil {
					out.fail("%v", err)
				}
			}
		}
	}
	sortTimes(ours)
	sortTimes(saws)
	if len(ours) > 0 {
		out.V.P50US = core.Percentile(ours, 0.5).Micros()
		out.V.P999US = core.Percentile(ours, 0.999).Micros()
		met := sort.Search(len(ours), func(i int) bool { return ours[i] > sloLimit })
		out.V.SLOFrac = float64(met) / float64(oursOffered)
	}
	if len(saws) > 0 {
		out.V.BotP999US = core.Percentile(saws, 0.999).Micros()
	}
	return out
}

func sortTimes(v []sim.Time) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// serveOurs runs one cell on the fork-join runtime and checks it: every
// admitted request completes, none is left in flight, and the request
// attribution agrees with the serve counters.
func serveOurs(out *runOut, rec *recorder, acc *layerAcc, sz sizes, seed int64, cell string, admitted []workload.ServeReq, reqTrace bool) ([]sim.Time, sim.Time) {
	reqs := coreRequests(admitted)
	cfg := coreConfig("itoa", sz.ServeWorkers, greedy, seed)
	cfg.Trace = reqTrace
	id := rec.begin("core.New")
	rt := core.New(cfg)
	rec.end(id)
	id = rec.begin("core.Runtime.Serve")
	st := rt.Serve(reqs, 0)
	rec.end(id)
	if st.Completed != st.Admitted || st.InFlight != 0 || int(st.Admitted) != len(admitted) || len(st.Done) != len(admitted) {
		out.fail("%s: admitted %d completed %d in flight %d", cell, st.Admitted, st.Completed, st.InFlight)
	}
	if reqTrace {
		id = rec.begin("obs.attribution")
		tlog := rt.TraceLog()
		if err := tlog.VerifyRequests(); err != nil {
			out.fail("%s: VerifyRequests: %v", cell, err)
		}
		_ = experiments.ServeReqBands(tlog.RequestAttribution())
		rec.end(id)
		if acc != nil {
			for _, e := range tlog.Events {
				acc.obsEvents[e.Kind.Layer()]++
			}
		}
	}
	if acc != nil {
		acc.core = append(acc.core, st.RunStats)
	}
	soj := make([]sim.Time, len(st.Done))
	for i, d := range st.Done {
		soj[i] = d.Sojourn()
	}
	return soj, st.ExecTime
}

// serveSAWS runs one cell on the SAWS-like bag-of-tasks runtime and checks
// that every admitted request completes and that the runtime processed
// exactly the admitted requests' task count.
func serveSAWS(out *runOut, rec *recorder, acc *layerAcc, sz sizes, seed int64, cell string, admitted []workload.ServeReq) ([]sim.Time, sim.Time) {
	arrivals := botArrivals(admitted, sz.ServeWorkers)
	arrivedAt := make(map[int64]sim.Time, len(admitted))
	outstanding := make(map[int64]int64, len(admitted))
	var nodes int64
	for _, r := range admitted {
		arrivedAt[r.ID] = r.At
		outstanding[r.ID] = 1
		nodes += r.Nodes()
	}
	var soj []sim.Time
	cfg := bot.Config{
		Machine: experiments.MachineByName("itoa"), Workers: sz.ServeWorkers, Seed: seed,
		Work: 190, MaxTime: 1800 * sim.Second,
		Serve: &bot.Serve{
			Arrivals: arrivals,
			OnTask: func(t bot.Task, children int, now sim.Time) {
				id := bot.ServeTaskID(t)
				outstanding[id] += int64(children) - 1
				if outstanding[id] == 0 {
					soj = append(soj, now-arrivedAt[id])
				}
			},
		},
	}
	id := rec.begin("bot.RunSAWS")
	st := bot.RunSAWS(cfg, bot.Task{}, bot.ServeExpand)
	rec.end(id)
	if len(soj) != len(admitted) || st.Tasks != nodes {
		out.fail("%s: completed %d of %d admitted, %d tasks for %d DAG nodes", cell, len(soj), len(admitted), st.Tasks, nodes)
	}
	if acc != nil {
		acc.bot = append(acc.bot, st)
	}
	return soj, st.Exec
}

// serveEntry runs the grid through experiments.Serve, the entry point of
// `repro serve`. Its rows carry no pooled sojourns, so only V.Rows is
// filled; the traced run checks them against the layer-level run's.
func serveEntry(sz sizes, seed, _ int64) runOut {
	out := runOut{Jobs: len(serveSystems) * len(serveProcesses) * len(serveLoads)}
	o, p := serveOptions(sz, seed)
	var rows []experiments.ServeRow
	if err := guard("experiments.Serve", func() { rows = experiments.Serve(o, p) }); err != nil {
		out.fail("%v", err)
		return out
	}
	for i, r := range rows {
		if r.Completed != r.Admitted || r.InFlight != 0 {
			out.fail("experiments.Serve row %d: admitted %d completed %d in flight %d", i, r.Admitted, r.Completed, r.InFlight)
		}
		out.V.Rows = append(out.V.Rows, serveCellRow(r.System, r.Process, r.Load, r.Admitted, r.Rejected, r.Completed, r.P50, r.P99, r.P999, r.MaxSojourn, r.Makespan))
	}
	return out
}
