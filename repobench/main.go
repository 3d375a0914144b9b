// Command repobench is the repository's end-to-end benchmark. It drives
// one workload per process through the stable public entry points — the
// root trident package (Analyze, Campaign) and the campaign server's HTTP
// wire schema — checks every output against committed tables, and prints
// one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash repobench/run.sh --workload model-predict --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 a separate run replays the workload's steps
// under spans recorded around each layer's public calls and reports
// per-layer metrics, reconciled against an untraced pass made in the same
// process. README.md in this directory documents the workloads, the
// metric-to-layer map and the sizing facts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	fiSeed   uint64
	// workDir holds spools, caches, checkpoints and trace output; it is
	// removed when the run ends.
	workDir string
	// traceOut receives the traced run's spans as JSONL
	// (.bench_build/trace-<workload>.jsonl).
	traceOut string
	// workers is the closed-loop client count and the FI worker count.
	workers int
	// kernels restricts the kernel set (nil = all of progs.Extended()).
	kernels []string
	// minPasses is the fewest complete passes a run makes.
	minPasses int
	tables    *tables
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record counts one attempted operation and whether it failed, logging
// the failure; it reports success.
func (r *result) record(workload string, err error) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintf(os.Stderr, "%s: %v\n", workload, err)
		return false
	}
	return true
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(*config) (*result, error)
}{
	"model-predict": {runModel, traceModel},
	"fi-campaign":   {runCampaign, traceCampaign},
	"fi-server":     {runServer, traceServer},
}

func main() {
	var (
		cfg      config
		seconds  int
		trace    int
		writeDir string
	)
	flag.StringVar(&cfg.workload, "workload", "", "model-predict, fi-campaign or fi-server")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: kernel order, job mix and repeats")
	flag.IntVar(&seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Uint64Var(&cfg.fiSeed, "fi-seed", devFISeed, "fault-injection campaign seed (committed tables exist for 1 and 2)")
	flag.StringVar(&writeDir, "write-expected", "", "regenerate the expected-output tables into this directory and exit")
	flag.Parse()

	cfg.seconds = float64(seconds)
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.workers)
	cfg.minPasses = 2

	if writeDir != "" {
		if err := writeTables(writeDir, cfg.workers); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatal(fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1"))
	}
	t, err := loadTables()
	if err != nil {
		fatal(err)
	}
	cfg.tables = t
	dir, err := os.MkdirTemp(buildDir(), "work-")
	if err != nil {
		fatal(fmt.Errorf("work dir: %w", err))
	}
	cfg.workDir = dir
	cfg.traceOut = fmt.Sprintf("%s/trace-%s.jsonl", buildDir(), cfg.workload)

	run := w.run
	if cfg.trace {
		run = w.traced
	}
	res, err := run(&cfg)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// buildDir is the checkout-local build and work directory (.bench_build, or
// $CARGO_TARGET_DIR when set), created on demand.
func buildDir() string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	if err := os.MkdirAll(d, 0o755); err != nil {
		fatal(err)
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repobench:", err)
	os.Exit(1)
}

// deadline reports whether a run that started at start has used its
// measurement time.
func (c *config) deadline(start time.Time) bool {
	return time.Since(start).Seconds() >= c.seconds
}
