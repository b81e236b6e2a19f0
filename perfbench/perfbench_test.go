package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must honour.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

// TestTinyWorkloads runs every workload at a tiny size, timed and traced,
// twice with one seed.
func TestTinyWorkloads(t *testing.T) {
	const seed = 7
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var nodes int64
			if tree := w.tree(tinySize); tree != "" {
				nodes = countSerial(tree)
			}
			reps := []repOut{timedRep(w, tinySize, seed, nodes), timedRep(w, tinySize, seed, nodes)}
			for _, r := range reps {
				if len(r.Errors) > 0 || r.Jobs != w.jobs(tinySize) {
					t.Fatalf("timed run: %d jobs, errors %v", r.Jobs, r.Errors)
				}
			}
			if !reps[0].V.equal(reps[1].V) {
				t.Errorf("virtual results differ for one seed:\n%+v\n%+v", reps[0].V, reps[1].V)
			}
			vals, attempted, failed := summarize(reps)
			if failed != 0 || attempted != 2*w.jobs(tinySize) {
				t.Errorf("summarize: attempted %d failed %d", attempted, failed)
			}
			for name, m := range fill(endToEnd, vals) {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v %s, want > 0", name, m.Value, m.Unit)
				}
			}

			tr := []tracedOut{tracedRep(w, tinySize, seed, nodes), tracedRep(w, tinySize, seed, nodes)}
			for _, r := range tr {
				if len(r.Errors) > 0 {
					t.Fatalf("traced run: %v", r.Errors)
				}
				checkSpans(t, r.Spans)
			}
			printed := fill(perLayer, tr[0].Layer)
			for _, d := range perLayer {
				if printed[d.Name].Unit != d.Unit {
					t.Errorf("%s printed with unit %q, want %q", d.Name, printed[d.Name].Unit, d.Unit)
				}
				if !d.Host && tr[0].Layer[d.Name] != tr[1].Layer[d.Name] {
					t.Errorf("%s = %v then %v for one seed", d.Name, tr[0].Layer[d.Name], tr[1].Layer[d.Name])
				}
			}
			if tr[0].Layer["sim.events"] <= 0 || tr[0].Layer["core.run_s"] <= 0 {
				t.Errorf("traced run saw no simulation: %v", tr[0].Layer)
			}
		})
	}
}

// checkSpans verifies that self times are non-negative and that each
// span's self time plus its children's durations is its own duration.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Self < 0 || s.End < s.Start {
			t.Errorf("span %+v: negative self or duration", s)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("span %s [%d,%d] outside its parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			child[s.Parent] += s.dur()
		}
	}
	for i, s := range spans {
		if s.Self+child[i] != s.dur() {
			t.Errorf("span %s: self %d + children %d != duration %d", s.Name, s.Self, child[i], s.dur())
		}
	}
	if len(spans) == 0 || spans[0].Parent != -1 || spans[0].Name != "run" {
		t.Errorf("first span is not the run root: %+v", spans[:min(len(spans), 1)])
	}
}

func TestRecorderHookSpansAdoptEarlierSiblings(t *testing.T) {
	r := newRecorder("test")
	root := r.begin("run")
	time.Sleep(time.Millisecond)
	inner := r.begin("inner")
	time.Sleep(time.Millisecond)
	r.end(inner)
	time.Sleep(time.Millisecond)
	r.add("hook", 3*time.Millisecond) // reported after "inner", enclosing it
	r.end(root)
	spans := r.finish()
	if spans[inner].Parent != 2 || spans[2].Parent != root {
		t.Fatalf("hook span did not adopt inner: %+v", spans)
	}
	checkSpans(t, spans)
	if spans[2].Self >= spans[2].dur() {
		t.Errorf("hook self %d does not exclude its child", spans[2].Self)
	}
}

func TestSummarizeCountsFailures(t *testing.T) {
	ok := repOut{Seed: 1, SetupS: 1, WallS: 2, AllocMB: 3, RetainedMB: 4, Jobs: 2, V: virtual{VExecMS: 5, Efficiency: 0.5, Rows: []string{"a", "b"}}}
	bad := ok
	bad.Errors = []string{"oracle failed"}
	differs := ok
	differs.V.Rows = []string{"a", "c"}
	vals, attempted, failed := summarize([]repOut{ok, bad, differs})
	if attempted != 6 || failed != 3 {
		t.Errorf("attempted %d failed %d, want 6 and 3", attempted, failed)
	}
	if vals["ok_frac"] != 0.5 || vals["wall_s"] != 2 || vals["vexec_ms"] != 5 {
		t.Errorf("summarize values %v", vals)
	}
}
