package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"trident"
)

// devFISeed is the fault-injection seed the benchmark runs by default and
// was developed against; heldOutFISeed has committed tables too but was
// not used while sizing or tuning.
const (
	devFISeed     = 1
	heldOutFISeed = 2
)

// campaignN is the trial count of every fi-campaign Campaign call, and
// serverN that of every fi-server job.
const (
	campaignN = 1000
	serverN   = 150
)

// modelRelTol is the relative tolerance on model predictions: core's
// float accumulation order follows map iteration, so OverallSDC differs
// between builds in the last bits (relative spread seen: 1.5e-9).
const modelRelTol = 1e-6

//go:embed expected/*.json
var expectedFS embed.FS

// modelEntry is one kernel's committed Analyze result.
type modelEntry struct {
	OverallSDC float64 `json:"overall_sdc"`
	Instrs     int     `json:"instrs"`
	DynInstrs  uint64  `json:"dyn_instrs"`
}

// campaignEntry is one kernel's committed Campaign outcome tally.
type campaignEntry struct {
	Trials     int            `json:"trials"`
	Counts     map[string]int `json:"counts"`
	ErrorBar95 float64        `json:"error_bar_95"`
}

// serverEntry is one (kernel, design) job's committed result: the SHA-256
// of its wire result with the job identity (id, cached) cleared, and the
// SDC estimate with its 95% CI half-width.
type serverEntry struct {
	SHA256 string  `json:"sha256"`
	SDC    float64 `json:"sdc"`
	CI95   float64 `json:"ci95"`
}

// tables are the committed expected outputs, keyed by FI seed where the
// output depends on it.
type tables struct {
	Model    map[string]modelEntry               `json:"model"`
	Campaign map[string]map[string]campaignEntry `json:"campaign"`
	Server   map[string]map[string]serverEntry   `json:"server"`
}

var tableFiles = map[string]func(*tables) any{
	"model.json":       func(t *tables) any { return &t.Model },
	"fi-campaign.json": func(t *tables) any { return &t.Campaign },
	"fi-server.json":   func(t *tables) any { return &t.Server },
}

func loadTables() (*tables, error) {
	t := &tables{}
	for name, field := range tableFiles {
		data, err := expectedFS.ReadFile("expected/" + name)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, field(t)); err != nil {
			return nil, fmt.Errorf("expected/%s: %w", name, err)
		}
	}
	return t, nil
}

func seedKey(s uint64) string { return strconv.FormatUint(s, 10) }

// checkModel compares an Analyze report with the committed prediction.
func (t *tables) checkModel(rep *trident.Report) error {
	want, ok := t.Model[rep.Program]
	if !ok {
		return fmt.Errorf("%s: no committed prediction", rep.Program)
	}
	if rel := math.Abs(rep.OverallSDC-want.OverallSDC) / math.Abs(want.OverallSDC); !(rel <= modelRelTol) {
		return fmt.Errorf("%s: OverallSDC %v, want %v (relative error %.3g)", rep.Program, rep.OverallSDC, want.OverallSDC, rel)
	}
	if len(rep.Instrs) != want.Instrs || rep.DynInstrs != want.DynInstrs {
		return fmt.Errorf("%s: %d predictions over %d dynamic instructions, want %d over %d",
			rep.Program, len(rep.Instrs), rep.DynInstrs, want.Instrs, want.DynInstrs)
	}
	return nil
}

// campaignTally turns a Campaign report into its outcome counts.
func campaignTally(r *trident.FIReport) campaignEntry {
	count := func(rate float64) int { return int(math.Round(rate * float64(r.Trials))) }
	return campaignEntry{
		Trials: r.Trials,
		Counts: map[string]int{
			"sdc": count(r.SDC), "crash": count(r.Crash), "hang": count(r.Hang),
			"benign": count(r.Benign), "detected": count(r.Detected),
		},
		ErrorBar95: r.ErrorBar95,
	}
}

// checkCampaign requires a Campaign report to equal the committed tally
// exactly.
func (t *tables) checkCampaign(fiSeed uint64, r *trident.FIReport) error {
	want, ok := t.Campaign[seedKey(fiSeed)][r.Program]
	if !ok {
		return fmt.Errorf("%s: no committed tally for FI seed %d", r.Program, fiSeed)
	}
	got := campaignTally(r)
	if got.Trials != want.Trials || got.ErrorBar95 != want.ErrorBar95 {
		return fmt.Errorf("%s: %d trials ±%v, want %d ±%v", r.Program, got.Trials, got.ErrorBar95, want.Trials, want.ErrorBar95)
	}
	for k, n := range want.Counts {
		if got.Counts[k] != n {
			return fmt.Errorf("%s: %s count %d, want %d", r.Program, k, got.Counts[k], n)
		}
	}
	return nil
}

// writeTables regenerates every table by running each operation once at
// the benchmark's sizes.
func writeTables(dir string, workers int) error {
	c := &config{workers: workers}
	t := &tables{
		Model:    map[string]modelEntry{},
		Campaign: map[string]map[string]campaignEntry{},
		Server:   map[string]map[string]serverEntry{},
	}
	for _, k := range c.kernelNames() {
		rep, err := trident.Analyze(k, trident.Options{Model: trident.ModelTrident})
		if err != nil {
			return err
		}
		t.Model[k] = modelEntry{OverallSDC: rep.OverallSDC, Instrs: len(rep.Instrs), DynInstrs: rep.DynInstrs}
	}
	for _, s := range []uint64{devFISeed, heldOutFISeed} {
		camp := map[string]campaignEntry{}
		for _, k := range c.kernelNames() {
			r, err := trident.Campaign(k, trident.Options{Seed: s, Samples: campaignN, Workers: workers})
			if err != nil {
				return err
			}
			camp[k] = campaignTally(r)
		}
		t.Campaign[seedKey(s)] = camp
		srv, err := serverTable(c, s)
		if err != nil {
			return err
		}
		t.Server[seedKey(s)] = srv
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, field := range tableFiles {
		data, err := json.MarshalIndent(field(t), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
