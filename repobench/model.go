package main

import (
	"math"
	"sort"
	"time"

	"trident"
	"trident/internal/analysis"
	"trident/internal/core"
	"trident/internal/ir"
	"trident/internal/profile"
	"trident/internal/progs"
)

// estimateKernel is the profile the fs/fc/fm split is estimated on: big
// enough that each sub-model's cost shows, small enough to time three
// times in a traced run.
const estimateKernel = "bfs-parboil"

var modelOpts = trident.Options{Model: trident.ModelTrident}

// modelTracePasses is how many passes model-predict's traced run makes:
// two, so one slow stretch of the host during one sad call does not
// decide the reconciliation.
const modelTracePasses = 2

// runModel is the model-predict workload: one client calls
// trident.Analyze on every kernel, in an order drawn from the seed, pass
// after pass. No fault injection runs.
func runModel(c *config) (*result, error) {
	setup, err := newSetupTimer(c.loadSetup, c.seconds)
	if err != nil {
		return nil, err
	}
	names := c.kernelNames()
	if _, err := trident.Analyze(names[0], modelOpts); err != nil { // warm-up, untimed
		return nil, err
	}
	res := &result{}
	rng := newRand(c.seed, 1)
	perKernel := map[string][]float64{}
	sdc := map[string]float64{}
	var ops, passes []float64
	start := time.Now()
	for len(passes) < c.minPasses || !c.deadline(start) {
		passStart := time.Now()
		var untimed time.Duration
		for _, i := range rng.Perm(len(names)) {
			d, err := setup.tick()
			if err != nil {
				return nil, err
			}
			untimed += d
			k := names[i]
			t := time.Now()
			rep, err := trident.Analyze(k, modelOpts)
			lat := ms(time.Since(t))
			if err == nil {
				err = c.tables.checkModel(rep)
			}
			if !res.record(c.workload, err) {
				continue
			}
			ops = append(ops, lat)
			perKernel[k] = append(perKernel[k], lat)
			sdc[k] = rep.OverallSDC
		}
		passes = append(passes, (time.Since(passStart) - untimed).Seconds())
	}
	var kinds []float64
	for _, k := range names {
		if l := perKernel[k]; len(l) > 0 {
			kinds = append(kinds, median(l))
		}
	}
	res.Metrics = endToEnd(setup.seconds(), passes, ops, kinds, c.modelMAE(sdc))
	res.Correct = res.Failed == 0
	return res, nil
}

// modelMAE is the Fig. 5 metric: mean |TRIDENT − FI| SDC in percentage
// points against the committed fi-campaign table.
func (c *config) modelMAE(sdc map[string]float64) float64 {
	fi := c.tables.Campaign[seedKey(c.fiSeed)]
	var errs []float64
	for _, k := range sortedKeys(sdc) {
		p := sdc[k]
		e, ok := fi[k]
		if !ok {
			continue
		}
		errs = append(errs, 100*math.Abs(p-float64(e.Counts["sdc"])/float64(e.Trials)))
	}
	return sum(errs) / float64(len(errs))
}

// traceModel is model-predict's traced run. Analyze cannot be split from
// outside, so the run repeats its steps itself — progs Build →
// profile.Collect → core.New → OverallSDC(0) → per-instruction
// InstrSDC/InstrCrash → report assembly — under one span each, right
// next to an untraced Analyze of the same kernel. Per-pass totals are
// averaged over the passes; per-kernel times are medians.
func traceModel(c *config) (*result, error) {
	names := c.kernelNames()
	if _, err := trident.Analyze(names[0], modelOpts); err != nil { // warm-up, untimed
		return nil, err
	}
	res := &result{Metrics: layerMetrics()}
	m := res.Metrics
	tr := newTracer()
	rng := newRand(c.seed, 1)
	collectMS, overallMS := map[string][]float64{}, map[string][]float64{}
	unstable := map[string]bool{}
	var untraced, dynInstrs, memEdges, fmIters, targets float64
	for pass := 0; pass < modelTracePasses; pass++ {
		for op, i := range rng.Perm(len(names)) {
			k := names[i]
			op += pass * len(names)
			var plain, traced *trident.Report
			var st analyzeStats
			interleaved(op, func() {
				start := time.Now()
				rep, err := trident.Analyze(k, modelOpts)
				untraced += ms(time.Since(start))
				if err == nil {
					err = c.tables.checkModel(rep)
				}
				if res.record(c.workload, err) {
					plain = rep
				}
			}, func() {
				root := tr.begin(0, op+1, "analyze", "")
				rep, stats, err := tracedAnalyze(tr, root, op+1, k)
				tr.end(root)
				if err == nil {
					err = c.tables.checkModel(rep)
				}
				if res.record(c.workload, err) {
					traced, st = rep, stats
				}
			})
			if plain == nil || traced == nil {
				continue
			}
			collectMS[k] = append(collectMS[k], st.collectMS)
			overallMS[k] = append(overallMS[k], st.overallMS)
			if math.Float64bits(traced.OverallSDC) != math.Float64bits(plain.OverallSDC) {
				unstable[k] = true
			}
			if pass == 0 {
				dynInstrs += float64(st.prof.Golden.DynInstrs)
				memEdges += float64(st.prof.NumStaticMemEdges())
				fmIters += float64(st.model.FMIterations())
				targets += float64(len(traced.Instrs))
			}
		}
	}
	if err := tr.write(c.traceOut); err != nil {
		return nil, err
	}

	for k := range collectMS {
		m["profile.collect_ms."+k] = metric{median(collectMS[k]), "ms"}
		m["core.overall_ms."+k] = metric{median(overallMS[k]), "ms"}
	}
	sums := tr.spanSums()
	perPass := 1 / float64(modelTracePasses)
	m["load.build_ms"] = metric{sums["progs.Build"] * perPass, "ms"}
	m["profile.collect_ms"] = metric{sums["profile.Collect"] * perPass, "ms"}
	m["core.new_ms"] = metric{sums["core.New"] * perPass, "ms"}
	m["core.instr_ms"] = metric{sums["core.InstrSDC"] * perPass, "ms"}
	m["profile.dyn_instrs"] = metric{dynInstrs, "count"}
	m["profile.mem_edges"] = metric{memEdges, "count"}
	m["core.fm_iterations"] = metric{fmIters, "count"}
	m["core.targets"] = metric{targets, "count"}
	m["core.unstable_kernels"] = metric{float64(len(unstable)), "count"}
	res.record(c.workload, tr.reconcile(m, tr.rootMS(), untraced, 1))

	mods, err := c.loadKernels()
	if err != nil {
		return nil, err
	}
	cfgStart := time.Now()
	for _, mod := range mods {
		for _, f := range mod.Funcs {
			analysis.Analyze(f)
		}
	}
	m["analysis.cfg_ms"] = metric{ms(time.Since(cfgStart)), "ms"}
	if err := estimateSubModels(c, m); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// analyzeStats carries what a traced Analyze learned besides its report.
type analyzeStats struct {
	prof                 *profile.Profile
	model                *core.Model
	collectMS, overallMS float64
}

// tracedAnalyze performs trident.Analyze's steps for kernel k, one span per
// layer call, and assembles the same report.
func tracedAnalyze(tr *tracer, parent, op int, k string) (*trident.Report, analyzeStats, error) {
	var (
		st  analyzeStats
		mod *ir.Module
		err error
	)
	tr.do(parent, op, "progs.Build", "load", func() {
		var p progs.Program
		if p, err = progs.ByName(k); err == nil {
			mod = p.Build()
		}
	})
	if err != nil {
		return nil, st, err
	}
	id := tr.begin(parent, op, "profile.Collect", "profile")
	st.prof, err = profile.Collect(mod, profile.Options{Seed: 1})
	tr.end(id)
	st.collectMS = tr.durMS(id)
	if err != nil {
		return nil, st, err
	}
	tr.do(parent, op, "core.New", "core", func() {
		st.model = core.New(st.prof, core.TridentConfig())
	})
	rep := &trident.Report{Program: k, StaticInstrs: mod.NumInstrs(), DynInstrs: st.prof.Golden.DynInstrs, PruningRatio: st.prof.PruningRatio()}
	id = tr.begin(parent, op, "core.OverallSDC", "core")
	rep.OverallSDC = st.model.OverallSDC(0, 1).SDC
	tr.end(id)
	st.overallMS = tr.durMS(id)
	tr.do(parent, op, "core.InstrSDC", "core", func() {
		mod.Instrs(func(in *ir.Instr) {
			if !in.HasResult() || st.prof.ExecCount[in] == 0 {
				return
			}
			rep.Instrs = append(rep.Instrs, trident.InstrPrediction{
				SDC:       st.model.InstrSDC(in),
				Crash:     st.model.InstrCrash(in),
				ExecCount: st.prof.ExecCount[in],
			})
			p := &rep.Instrs[len(rep.Instrs)-1]
			p.Instruction, p.Location = ir.FormatInstr(in), in.Pos()
		})
	})
	tr.do(parent, op, "report", "trident", func() {
		sort.Slice(rep.Instrs, func(i, j int) bool {
			if rep.Instrs[i].SDC != rep.Instrs[j].SDC {
				return rep.Instrs[i].SDC > rep.Instrs[j].SDC
			}
			return rep.Instrs[i].Location < rep.Instrs[j].Location
		})
	})
	return rep, st, nil
}

// estimateSubModels estimates the fs, fc and fm shares of OverallSDC(0) on
// one profile: the time under FSOnlyConfig, then the increments of
// FSFCConfig over it and of TridentConfig over FSFCConfig. They are
// estimates — the configurations do not nest exactly, so an increment can
// be negative.
func estimateSubModels(c *config, m map[string]metric) error {
	k := estimateKernel
	if !contains(c.kernelNames(), k) {
		k = c.kernelNames()[0]
	}
	p, err := progs.ByName(k)
	if err != nil {
		return err
	}
	prof, err := profile.Collect(p.Build(), profile.Options{Seed: 1})
	if err != nil {
		return err
	}
	var t [3]float64
	for i, cfg := range []core.Config{core.FSOnlyConfig(), core.FSFCConfig(), core.TridentConfig()} {
		start := time.Now()
		core.New(prof, cfg).OverallSDC(0, 1)
		t[i] = ms(time.Since(start))
	}
	m["core.fs_ms_est"] = metric{t[0], "ms"}
	m["core.fc_ms_est"] = metric{t[1] - t[0], "ms"}
	m["core.fm_ms_est"] = metric{t[2] - t[1], "ms"}
	return nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
