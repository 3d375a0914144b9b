package main

import (
	"bufio"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"trident/internal/ir"
	"trident/internal/progs"
	"trident/internal/telemetry"
)

// setupReps is how many times a run repeats its one-time set-up, and
// setupFirst how many of those happen before measuring starts; the rest
// are spread over the measured time, between operations. The host
// switches between a fast and a slow speed every few seconds, so a set-up
// of a few milliseconds timed only at start-up lands wholly in one of
// them; spreading the repetitions makes their median cover both.
const (
	setupReps  = 31
	setupFirst = 1
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// newRand returns the workload's deterministic generator for stream.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// kernelNames is the workload's kernel set: the 14 kernels of
// progs.Extended(), or the configured subset.
func (c *config) kernelNames() []string {
	if c.kernels != nil {
		return c.kernels
	}
	return allKernels()
}

func allKernels() []string {
	var out []string
	for _, p := range progs.Extended() {
		out = append(out, p.Name)
	}
	return out
}

// loadKernels builds and verifies every kernel of the set: the one-time
// load every workload's set-up pays.
func (c *config) loadKernels() (map[string]*ir.Module, error) {
	out := make(map[string]*ir.Module)
	for _, name := range c.kernelNames() {
		p, err := progs.ByName(name)
		if err != nil {
			return nil, err
		}
		m := p.Build()
		if err := ir.Verify(m); err != nil {
			return nil, err
		}
		out[name] = m
	}
	return out, nil
}

// setupTimer repeats a workload's set-up and keeps each wall time. f
// performs the set-up once and may return a teardown, which runs untimed.
type setupTimer struct {
	f     func() (func(), error)
	walls []float64
	every time.Duration
	next  time.Time
}

// newSetupTimer times setupFirst set-ups now and schedules the rest
// evenly over a run of the given length. Operations longer than the
// spacing leave fewer repetitions: model-predict makes about ten.
func newSetupTimer(f func() (func(), error), seconds float64) (*setupTimer, error) {
	st := &setupTimer{f: f, every: time.Duration(seconds / float64(setupReps-setupFirst) * float64(time.Second))}
	for i := 0; i < setupFirst; i++ {
		if err := st.once(); err != nil {
			return nil, err
		}
	}
	st.next = time.Now()
	return st, nil
}

func (st *setupTimer) once() error {
	start := time.Now()
	teardown, err := st.f()
	if err != nil {
		return err
	}
	st.walls = append(st.walls, time.Since(start).Seconds())
	if teardown != nil {
		teardown()
	}
	return nil
}

// tick repeats the set-up when one is due and returns the time it took,
// which the caller leaves out of its measurements.
func (st *setupTimer) tick() (time.Duration, error) {
	start := time.Now()
	if len(st.walls) >= setupReps || start.Before(st.next) {
		return 0, nil
	}
	st.next = start.Add(st.every)
	err := st.once()
	return time.Since(start), err
}

// seconds is the median set-up time.
func (st *setupTimer) seconds() float64 { return median(st.walls) }

// loadSetup is the set-up of the workloads whose only one-time work is
// loading the kernel set.
func (c *config) loadSetup() (func(), error) {
	_, err := c.loadKernels()
	return nil, err
}

// endToEnd assembles the untraced metrics every workload reports. passes
// are complete-pass wall times in seconds, ops per-operation latencies in
// milliseconds, perKind the median latency of each distinct operation
// kind in milliseconds, and errPP the workload's SDC estimate error.
func endToEnd(setup float64, passes, ops, perKind []float64, errPP float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
		"pass_s":        {median(passes), "s"},
		"op_geomean_ms": {geomean(perKind), "ms"},
		"op_p50_ms":     {quantile(ops, 0.5), "ms"},
		"op_p90_ms":     {quantile(ops, 0.9), "ms"},
		"sdc_err_pp":    {errPP, "pp"},
	}
}

// histP50 estimates a histogram's median from its power-of-two buckets,
// interpolating linearly inside the bucket that holds it.
func histP50(h telemetry.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	half := float64(h.Count) / 2
	seen := 0.0
	lower := 0.0
	for _, b := range h.Buckets {
		if seen+float64(b.N) >= half {
			upper := float64(b.Le)
			return lower + (half-seen)/float64(b.N)*(upper-lower)
		}
		seen += float64(b.N)
		lower = float64(b.Le)
	}
	return float64(h.Max)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
