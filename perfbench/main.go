// Command perfbench is the repository's benchmark. It drives four named
// workloads through the simulator's public entry points, checks every
// output against an oracle, and prints its metrics as one JSON object on
// the last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 4.2, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time, memory and
// the model's virtual results); with -trace 1 a separate traced run times
// the calls into each layer from outside and prints the per-layer metrics.
// The metric tables live in metrics.go and match BENCHMARK.json.
//
// Every repetition runs in a fresh process with GOMAXPROCS=1 and the sweep
// pool at 1: the workload package keeps process-global memos, so a fresh
// process is the only way to start each repetition with them empty. The
// children run with GODEBUG=gcstoptheworld=1, so each GC cycle starts at a
// point fixed by the allocation sequence and the live heap it marks repeats
// exactly for a seed; GC work still counts in wall time.
//
// The workload seed selects subSeeds simulator seeds; repetitions cycle
// through them, host figures are medians over all repetitions and virtual
// figures medians over the simulator seeds.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload uts_fine --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repTimeout bounds one child process; a repetition takes seconds, so a
// child still running after this is hung and counts as failed.
const repTimeout = 150 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see workloads.go)")
		seed    = flag.Int64("seed", 0, "workload seed, >= 0")
		seconds = flag.Int("seconds", 10, "how long the untraced run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build", "directory for the span file of a traced run")
		child   = flag.String("child", "", "internal: run one repetition in this process (timed or traced)")
		simSeed = flag.Int64("simseed", 1, "internal: simulator seed of the repetition")
		nodes   = flag.Int64("nodes", 0, "internal: UTS oracle node count computed by the parent")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seed >= 0, -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)

	switch *child {
	case "":
	case "timed":
		writeJSON(timedRep(w, fullSize, *simSeed, *nodes))
		return
	case "traced":
		writeJSON(tracedRep(w, fullSize, *simSeed, *nodes))
		return
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -child %q\n", *child)
		os.Exit(2)
	}

	fmt.Printf("# host go=%s nproc=%d gomaxprocs=1 workload=%s seed=%d simseeds=%v seconds=%d trace=%d\n",
		runtime.Version(), runtime.NumCPU(), w.name, *seed, subSeeds(*seed), *seconds, *trace)
	var oracle int64
	if tree := w.tree(fullSize); tree != "" {
		oracle = countSerial(tree)
	}
	spawn := func(mode string, simSeed int64) ([]byte, error) { return spawnChild(mode, w.name, simSeed, oracle) }
	var res result
	if *trace == 1 {
		res = runTraced(w, spawn, *out, *seed)
	} else {
		res = runTimed(w, *seed, spawn, time.Duration(*seconds)*time.Second)
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

func writeJSON(v any) {
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// subSeedCount is how many simulator seeds one workload seed selects.
const subSeedCount = 3

// subSeeds maps a workload seed to its simulator seeds. None is zero, which
// the experiments package would read as its default seed.
func subSeeds(seed int64) []int64 {
	out := make([]int64, subSeedCount)
	for i := range out {
		out[i] = seed*subSeedCount + int64(i) + 1
	}
	return out
}

// spawnChild runs one repetition in a fresh process of this program and
// returns its JSON line. Stderr passes through.
func spawnChild(mode, workload string, simSeed, nodes int64) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate executable: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", workload,
		"-simseed", strconv.FormatInt(simSeed, 10), "-nodes", strconv.FormatInt(nodes, 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GODEBUG=gcstoptheworld=1")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition of %s: %w", mode, workload, err)
	}
	return stdout.Bytes(), nil
}

// runTimed repeats the workload in fresh processes, cycling through the
// simulator seeds, until the time budget is spent and every seed ran once.
func runTimed(w *spec, seed int64, spawn func(string, int64) ([]byte, error), budget time.Duration) result {
	seeds := subSeeds(seed)
	var reps []repOut
	start := time.Now()
	var last time.Duration
	for len(reps) < len(seeds) || time.Since(start)+last <= budget {
		simSeed := seeds[len(reps)%len(seeds)]
		t0 := time.Now()
		raw, err := spawn("timed", simSeed)
		last = time.Since(t0)
		var r repOut
		if err == nil {
			err = json.Unmarshal(raw, &r)
		}
		if err != nil {
			r = repOut{Seed: simSeed, Jobs: w.jobs(fullSize), Errors: []string{err.Error()}}
		}
		fmt.Fprintf(os.Stderr, "# rep %d simseed=%d wall_s=%.4f setup_s=%.5f retained_mb=%.2f failed=%d\n",
			len(reps), simSeed, r.WallS, r.SetupS, r.RetainedMB, len(r.Errors))
		reps = append(reps, r)
	}
	vals, attempted, failed := summarize(reps)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: fill(endToEnd, vals)}
}

// summarize folds repetitions into the end-to-end metrics. Host figures
// are medians over repetitions; virtual figures come from the model, must
// repeat exactly for one simulator seed (a repetition that disagrees with
// the seed's first fails) and are medians over the seeds.
func summarize(reps []repOut) (map[string]float64, int, int) {
	attempted, failed := 0, 0
	first := map[int64]*repOut{}
	col := map[string][]float64{}
	for i := range reps {
		r := &reps[i]
		attempted += r.Jobs
		failed += len(r.Errors)
		for _, e := range r.Errors {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
		}
		if len(r.Errors) > 0 {
			continue
		}
		if ref, ok := first[r.Seed]; !ok {
			first[r.Seed] = r
			col["vexec_ms"] = append(col["vexec_ms"], r.V.VExecMS)
			col["efficiency"] = append(col["efficiency"], r.V.Efficiency)
		} else if !ref.V.equal(r.V) {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: virtual results differ between repetitions of seed %d\n", r.Seed)
			failed += r.Jobs
			continue
		}
		col["setup_s"] = append(col["setup_s"], r.SetupS)
		col["wall_s"] = append(col["wall_s"], r.WallS)
		col["alloc_mb"] = append(col["alloc_mb"], r.AllocMB)
		col["retained_mb"] = append(col["retained_mb"], r.RetainedMB)
	}
	if failed > attempted {
		failed = attempted
	}
	vals := map[string]float64{}
	for k, v := range col {
		vals[k] = median(v)
	}
	for _, k := range []string{"setup_s", "wall_s", "alloc_mb", "retained_mb", "vexec_ms", "efficiency"} {
		if _, ok := vals[k]; !ok {
			vals[k] = 0
		}
	}
	vals["ok_frac"] = 0
	if attempted > 0 {
		vals["ok_frac"] = float64(attempted-failed) / float64(attempted)
	}
	return vals, attempted, failed
}

// runTraced makes the one traced run, on the first simulator seed, and
// writes its spans.
func runTraced(w *spec, spawn func(string, int64) ([]byte, error), outDir string, seed int64) result {
	var tr tracedOut
	raw, err := spawn("traced", subSeeds(seed)[0])
	if err == nil {
		err = json.Unmarshal(raw, &tr)
	}
	if err != nil {
		tr = tracedOut{Jobs: w.jobs(fullSize), Errors: []string{err.Error()}}
	}
	for _, e := range tr.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	res := result{Attempted: tr.Jobs, Failed: min(len(tr.Errors), tr.Jobs)}
	res.Correct = res.Failed == 0 && err == nil
	if err == nil {
		if werr := writeSpans(outDir, w.name, seed, tr.Spans); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", werr)
			res.Correct = false
		}
	}
	vals := tr.Layer
	if vals == nil {
		vals = map[string]float64{}
	}
	for _, d := range perLayer {
		if _, ok := vals[d.Name]; !ok {
			vals[d.Name] = 0
			res.Correct = false
		}
	}
	res.Metrics = fill(perLayer, vals)
	return res
}

// writeSpans writes the traced run's spans, once, at the end.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	doc := struct {
		Go         string `json:"go"`
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		Spans      []span `json:"spans"`
	}{runtime.Version(), runtime.NumCPU(), 1, workload, seed, spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/spans_%s_seed%d.json", dir, workload, seed)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Println("# spans written to", path)
	return nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// guard runs fn and turns a panic into an error naming the job.
func guard(job string, fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s panicked: %v", job, v)
		}
	}()
	fn()
	return nil
}
