package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// tinyKernels keep the smoke runs to a few seconds per workload.
var tinyKernels = []string{"nibblepack", "rgb2gray"}

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	tabs, err := loadTables()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return &config{
		workload: workload, seed: 1, seconds: 0.1, trace: trace, fiSeed: devFISeed,
		workDir: dir, traceOut: filepath.Join(dir, "trace.jsonl"),
		workers: 2, kernels: tinyKernels, minPasses: 1, tables: tabs,
	}
}

func runTiny(t *testing.T, c *config) *result {
	t.Helper()
	w := workloads[c.workload]
	run := w.run
	if c.trace {
		run = w.traced
	}
	res, err := run(c)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
	}
	return res
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestEveryMetricEmitted runs each workload at tiny size, untraced and
// traced, and requires exactly the declared metrics with their units and
// a clean output check.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, tinyConfig(t, w, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			var missing, extra []string
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					missing = append(missing, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, declared %q", w, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					extra = append(extra, name)
				}
			}
			sort.Strings(missing)
			sort.Strings(extra)
			if len(missing)+len(extra) > 0 {
				t.Errorf("%s trace=%v: missing %v, undeclared %v", w, trace, missing, extra)
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestCorruptedTableFails corrupts one committed entry per workload and
// requires the run to count failures.
func TestCorruptedTableFails(t *testing.T) {
	k := tinyKernels[0]
	corrupt := map[string]func(*tables){
		"model-predict": func(tb *tables) {
			e := tb.Model[k]
			e.OverallSDC *= 1.001
			tb.Model[k] = e
		},
		"fi-campaign": func(tb *tables) {
			e := tb.Campaign[seedKey(devFISeed)][k]
			counts := map[string]int{}
			for o, n := range e.Counts {
				counts[o] = n
			}
			counts["sdc"]++
			e.Counts = counts
			tb.Campaign[seedKey(devFISeed)][k] = e
		},
		"fi-server": func(tb *tables) {
			key := k + "/stratify"
			e := tb.Server[seedKey(devFISeed)][key]
			e.SHA256 = "0" + e.SHA256[1:]
			if e.SHA256 == tb.Server[seedKey(devFISeed)][key].SHA256 {
				e.SHA256 = "1" + e.SHA256[1:]
			}
			tb.Server[seedKey(devFISeed)][key] = e
		},
	}
	for _, w := range sortedKeys(corrupt) {
		c := tinyConfig(t, w, false)
		corrupt[w](c.tables)
		res := runTiny(t, c)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted table went unnoticed: correct=%v failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestHeldOutSeedTables checks the held-out FI seed's committed tables
// against a tiny run of each FI workload.
func TestHeldOutSeedTables(t *testing.T) {
	for _, w := range []string{"fi-campaign", "fi-server"} {
		c := tinyConfig(t, w, false)
		c.fiSeed = heldOutFISeed
		if res := runTiny(t, c); !res.Correct {
			t.Errorf("%s at FI seed %d: %d of %d failed", w, heldOutFISeed, res.Failed, res.Attempted)
		}
	}
}

// TestBlockRepeatsFollowOriginals pins the fi-server schedule shape: every
// tuple once, one repeat per three tuples, each after its original.
func TestBlockRepeatsFollowOriginals(t *testing.T) {
	kernels := allKernels()
	for seed := uint64(1); seed <= 20; seed++ {
		b := makeBlock(newRand(seed, 3), kernels)
		tuples := len(kernels) * len(designs)
		if len(b) != tuples+tuples/3 {
			t.Fatalf("seed %d: %d submissions, want %d", seed, len(b), tuples+tuples/3)
		}
		seen := map[string]bool{}
		for i, j := range b {
			if j.repeatOf < 0 {
				if seen[j.key()] {
					t.Fatalf("seed %d: %s submitted twice as an original", seed, j.key())
				}
				seen[j.key()] = true
				continue
			}
			if j.repeatOf >= i || b[j.repeatOf].repeatOf >= 0 || b[j.repeatOf].key() != j.key() {
				t.Fatalf("seed %d: submission %d repeats %d (%s), not an earlier original of %s", seed, i, j.repeatOf, b[j.repeatOf].key(), j.key())
			}
		}
	}
}
