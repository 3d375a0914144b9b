package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"trident"
	"trident/internal/decoded"
	"trident/internal/fault"
	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/progs"
	"trident/internal/stats"
	"trident/internal/telemetry"
)

// checkpointKernel is the kernel whose checkpointed campaign is timed
// against the in-memory one.
const checkpointKernel = "pathfinder"

// snapshotInterval mirrors trident.Options' default, so the traced run's
// direct fault.New calls match what Campaign does.
const snapshotInterval = 2048

// tracePasses is how many passes fi-campaign's traced run makes.
const tracePasses = 3

func (c *config) campaignOpts() trident.Options {
	return trident.Options{Seed: c.fiSeed, Samples: campaignN, Workers: c.workers}
}

// runCampaign is the fi-campaign workload: one client calls
// trident.Campaign on every kernel, in an order drawn from the seed, pass
// after pass — plain sampling on the default engine, held in memory.
func runCampaign(c *config) (*result, error) {
	setup, err := newSetupTimer(c.loadSetup, c.seconds)
	if err != nil {
		return nil, err
	}
	names := c.kernelNames()
	opts := c.campaignOpts()
	if _, err := trident.Campaign(names[0], opts); err != nil { // warm-up, untimed
		return nil, err
	}
	res := &result{}
	rng := newRand(c.seed, 2)
	perKernel := map[string][]float64{}
	ci := map[string]float64{}
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
			r, err := trident.Campaign(k, opts)
			lat := ms(time.Since(t))
			if err == nil {
				err = c.tables.checkCampaign(c.fiSeed, r)
			}
			if !res.record(c.workload, err) {
				continue
			}
			ops = append(ops, lat)
			perKernel[k] = append(perKernel[k], lat)
			ci[k] = 100 * r.ErrorBar95
		}
		passes = append(passes, (time.Since(passStart) - untimed).Seconds())
	}
	var kinds, cis []float64
	for _, k := range names {
		if l := perKernel[k]; len(l) > 0 {
			kinds = append(kinds, median(l))
			cis = append(cis, ci[k])
		}
	}
	res.Metrics = endToEnd(setup.seconds(), passes, ops, kinds, sum(cis)/float64(len(cis)))
	res.Correct = res.Failed == 0
	return res, nil
}

// traceCampaign is fi-campaign's traced run: tracePasses passes in which
// each Campaign call sits right next to the same campaign performed step
// by step — progs Build → fault.New (golden run and snapshot capture) →
// CampaignRandom → report — under spans, with the fault layer's telemetry
// registry attached. Per-pass totals are averaged over the passes;
// per-kernel times are medians.
func traceCampaign(c *config) (*result, error) {
	names := c.kernelNames()
	opts := c.campaignOpts()
	if _, err := trident.Campaign(names[0], opts); err != nil { // warm-up, untimed
		return nil, err
	}
	res := &result{Metrics: layerMetrics()}
	m := res.Metrics
	reg := telemetry.NewRegistry()
	tr := newTracer()
	rng := newRand(c.seed, 2)
	campMS := map[string][]float64{}
	var untraced float64
	for pass := 0; pass < tracePasses; pass++ {
		for op, i := range rng.Perm(len(names)) {
			k := names[i]
			op += pass * len(names)
			interleaved(op, func() {
				start := time.Now()
				r, err := trident.Campaign(k, opts)
				untraced += ms(time.Since(start))
				if err == nil {
					err = c.tables.checkCampaign(c.fiSeed, r)
				}
				res.record(c.workload, err)
			}, func() {
				root := tr.begin(0, op+1, "campaign", "")
				r, d, err := tracedCampaign(tr, root, op+1, k, c.fiSeed, c.workers, reg)
				tr.end(root)
				if err == nil {
					err = c.tables.checkCampaign(c.fiSeed, r)
				}
				if res.record(c.workload, err) {
					campMS[k] = append(campMS[k], d)
				}
			})
		}
	}
	if err := tr.write(c.traceOut); err != nil {
		return nil, err
	}

	for k, d := range campMS {
		m["fault.campaign_ms."+k] = metric{median(d), "ms"}
	}
	sums := tr.spanSums()
	snap := reg.Snapshot()
	executed := float64(snap.Counters["fi.trials.executed"])
	m["load.build_ms"] = metric{sums["progs.Build"] / tracePasses, "ms"}
	m["fault.new_ms"] = metric{sums["fault.New"] / tracePasses, "ms"}
	m["fault.trial_us_p50"] = metric{histP50(snap.Histograms["fi.trial_us"]), "us"}
	m["fault.worker_util"] = metric{float64(snap.Counters["fi.workers.busy_us"]) / 1000 / (sums["fault.CampaignRandom"] * float64(c.workers)), "frac"}
	m["interp.instrs_per_trial"] = metric{float64(snap.Counters["interp.instrs"]) / executed, "count"}
	m["interp.snapshot.capture_us_p50"] = metric{histP50(snap.Histograms["interp.snapshot.capture_us"]), "us"}
	m["interp.snapshot.restore_us_p50"] = metric{histP50(snap.Histograms["interp.snapshot.restore_us"]), "us"}
	m["fi.replay.saved_instrs"] = metric{float64(snap.Counters["fi.replay.saved_instrs"]), "count"}
	res.record(c.workload, tr.reconcile(m, tr.rootMS(), untraced, 1))

	if err := timeInterpLayers(c, m); err != nil {
		return nil, err
	}
	if err := timeCheckpoint(c, m); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedCampaign performs trident.Campaign's steps for kernel k, one span
// per layer call, and returns the same report with CampaignRandom's time.
func tracedCampaign(tr *tracer, parent, op int, k string, seed uint64, workers int, reg *telemetry.Registry) (*trident.FIReport, float64, error) {
	var (
		mod *ir.Module
		inj *fault.Injector
		res *fault.CampaignResult
		err error
	)
	tr.do(parent, op, "progs.Build", "load", func() {
		var p progs.Program
		if p, err = progs.ByName(k); err == nil {
			mod = p.Build()
		}
	})
	if err != nil {
		return nil, 0, err
	}
	tr.do(parent, op, "fault.New", "fault", func() {
		inj, err = fault.New(mod, fault.Options{Seed: seed, Workers: workers, SnapshotInterval: snapshotInterval, Metrics: reg})
	})
	if err != nil {
		return nil, 0, err
	}
	id := tr.begin(parent, op, "fault.CampaignRandom", "fault")
	res, err = inj.CampaignRandom(context.Background(), campaignN)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	var rep *trident.FIReport
	tr.do(parent, op, "report", "trident", func() {
		rep = &trident.FIReport{
			Program: k, Trials: res.N(), SDC: res.SDCProb(),
			Crash: res.Rate(fault.Crash), Hang: res.Rate(fault.Hang),
			Benign: res.Rate(fault.Benign), Detected: res.Rate(fault.Detected),
			ErrorBar95: stats.ProportionCI95(res.SDCProb(), res.N()),
		}
	})
	return rep, tr.durMS(id), nil
}

// timeInterpLayers times the interpreter's golden run (default engine)
// and the decoded lowering pass over every kernel.
func timeInterpLayers(c *config, m map[string]metric) error {
	mods, err := c.loadKernels()
	if err != nil {
		return err
	}
	var golden, compile time.Duration
	for _, mod := range mods {
		start := time.Now()
		if _, err := interp.Run(mod, interp.Options{}); err != nil {
			return err
		}
		golden += time.Since(start)
		start = time.Now()
		decoded.Compile(mod)
		compile += time.Since(start)
	}
	m["interp.golden_ms"] = metric{ms(golden), "ms"}
	m["decoded.compile_ms"] = metric{ms(compile), "ms"}
	return nil
}

// timeCheckpoint reports CampaignRandomCheckpoint minus CampaignRandom on
// one kernel at the workload's N, each the median of three runs.
func timeCheckpoint(c *config, m map[string]metric) error {
	k := checkpointKernel
	if !contains(c.kernelNames(), k) {
		k = c.kernelNames()[0]
	}
	p, err := progs.ByName(k)
	if err != nil {
		return err
	}
	inj, err := fault.New(p.Build(), fault.Options{Seed: c.fiSeed, Workers: c.workers, SnapshotInterval: snapshotInterval})
	if err != nil {
		return err
	}
	var mem, ck []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := inj.CampaignRandom(context.Background(), campaignN); err != nil {
			return err
		}
		mem = append(mem, ms(time.Since(start)))
		path := filepath.Join(c.workDir, fmt.Sprintf("ck-%d.jsonl", i))
		start = time.Now()
		if _, err := inj.CampaignRandomCheckpoint(context.Background(), campaignN, path); err != nil {
			return err
		}
		ck = append(ck, ms(time.Since(start)))
	}
	m["fault.checkpoint_ms"] = metric{median(ck) - median(mem), "ms"}
	return nil
}
