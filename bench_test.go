package trident

// This file is the benchmark harness promised by DESIGN.md: one testing.B
// benchmark per paper table and figure, plus the ablation benches for the
// design choices DESIGN.md calls out and micro-benchmarks of the
// substrates. Benchmarks run reduced configurations (fewer FI samples and
// a benchmark subset) so `go test -bench=.` completes in minutes; the
// full-fidelity numbers recorded in EXPERIMENTS.md come from
// `go run ./cmd/experiments` with paper-scale parameters.

import (
	"context"
	"testing"

	"trident/internal/core"
	"trident/internal/experiments"
	"trident/internal/fault"
	"trident/internal/interp"
	"trident/internal/profile"
	"trident/internal/progs"
)

// benchCfg is the reduced configuration shared by the experiment benches.
var benchCfg = experiments.Config{
	Samples:  120,
	PerInstr: 15,
	Seed:     2018,
	Programs: []string{"pathfinder", "nw", "bfs-rodinia"},
	Workers:  4,
}

func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5OverallSDC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2PerInstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6a(benchCfg, []int{100, 300}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6bScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6b(benchCfg, []int{20, 60}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7PerBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Protection(b *testing.B) {
	cfg := benchCfg
	cfg.Programs = []string{"pathfinder"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Baselines(b *testing.B) {
	cfg := benchCfg
	cfg.Programs = []string{"pathfinder", "nw"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches (DESIGN.md §6).

func BenchmarkAblationPruning(b *testing.B) {
	cfg := benchCfg
	cfg.Programs = []string{"pathfinder", "nw"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPruning(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxDivergence > 1e-6 {
			b.Fatalf("pruning changed results by %v", res.MaxDivergence)
		}
	}
}

func BenchmarkAblationValueProfile(b *testing.B) {
	cfg := benchCfg
	cfg.Programs = []string{"pathfinder", "nw"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationValueProfile(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFixpoint(b *testing.B) {
	cfg := benchCfg
	cfg.Programs = []string{"pathfinder", "nw"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFixpoint(cfg, []int{1, 200}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKnapsack(b *testing.B) {
	cfg := benchCfg
	cfg.Programs = []string{"pathfinder"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationKnapsack(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate micro-benchmarks.

// BenchmarkInterpreterThroughput measures raw interpreter speed in dynamic
// instructions per second (reported as ns/op over one pathfinder run).
func BenchmarkInterpreterThroughput(b *testing.B) {
	p, err := progs.ByName("pathfinder")
	if err != nil {
		b.Fatal(err)
	}
	m := p.Build()
	res, err := interp.Run(m, interp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(res.DynInstrs)) // bytes/s reads as instructions/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(m, interp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfilingPhase measures the fixed cost of TRIDENT's profiling
// phase on one benchmark.
func BenchmarkProfilingPhase(b *testing.B) {
	p, err := progs.ByName("pathfinder")
	if err != nil {
		b.Fatal(err)
	}
	m := p.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Collect(m, profile.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelAllInstructions measures TRIDENT's inference phase: per-
// instruction SDC predictions for every executed instruction, one
// sub-benchmark per kernel (profiling excluded, model construction
// included). Select one kernel with -bench 'ModelAllInstructions/sad$'.
func BenchmarkModelAllInstructions(b *testing.B) {
	for _, p := range progs.Extended() {
		b.Run(p.Name, func(b *testing.B) {
			prof, err := profile.Collect(p.Build(), profile.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.New(prof, core.TridentConfig()).OverallSDC(0, 1)
			}
		})
	}
}

// Campaign benchmarks: the legacy engine re-interprets every trial's
// pre-fault prefix from instruction zero; the snapshot engine resumes
// from the nearest golden-run snapshot. Same seed, same trials, same
// outcomes — the only difference is wall-clock. cmd/fibench runs the
// same comparison standalone and records it in BENCH_fi.json.

func benchCampaign(b *testing.B, program string, interval uint64) {
	p, err := progs.ByName(program)
	if err != nil {
		b.Fatal(err)
	}
	inj, err := fault.New(p.Build(), fault.Options{
		Seed: 7, Workers: 4, SnapshotInterval: interval,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inj.CampaignRandom(context.Background(), 150); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignLegacy(b *testing.B) {
	for _, prog := range []string{"pathfinder", "nw", "sad"} {
		b.Run(prog, func(b *testing.B) { benchCampaign(b, prog, 0) })
	}
}

func BenchmarkCampaignSnapshot(b *testing.B) {
	for _, prog := range []string{"pathfinder", "nw", "sad"} {
		b.Run(prog, func(b *testing.B) { benchCampaign(b, prog, 2048) })
	}
}

// BenchmarkSingleInjection measures the cost of one fault-injection trial
// — the unit FI cost that makes campaigns expensive and models attractive.
func BenchmarkSingleInjection(b *testing.B) {
	p, err := progs.ByName("pathfinder")
	if err != nil {
		b.Fatal(err)
	}
	inj, err := fault.New(p.Build(), fault.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	targets := inj.Targets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := targets[i%len(targets)]
		if _, err := inj.Inject(context.Background(), target, 1, i%8); err != nil {
			b.Fatal(err)
		}
	}
}
