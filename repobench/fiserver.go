package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"trident/internal/bitlive"
	"trident/internal/cache"
	"trident/internal/server"
	"trident/internal/telemetry"
)

// designs are the sampling designs fi-server jobs draw from, with the
// wire flag each sets.
var designs = []string{"plain", "prune", "stratify", "adaptive"}

// traceBlocks is how many untraced/traced block pairs fi-server's traced
// run makes.
const traceBlocks = 2

// submitRequest is the subset of the server's POST /jobs schema the
// benchmark sends.
type submitRequest struct {
	Program          string `json:"program"`
	N                int    `json:"n"`
	Seed             uint64 `json:"seed"`
	Shards           int    `json:"shards"`
	Workers          int    `json:"workers"`
	PruneBits        bool   `json:"prune_bits,omitempty"`
	Stratify         bool   `json:"stratify,omitempty"`
	StratifyAdaptive bool   `json:"stratify_adaptive,omitempty"`
}

// jobResult is the subset of GET /jobs/{id}/result the benchmark reads.
type jobResult struct {
	State              string  `json:"state"`
	Missing            int     `json:"missing"`
	SDCProb            float64 `json:"sdc_prob"`
	ErrorBar95         float64 `json:"error_bar_95"`
	Stratified         bool    `json:"stratified"`
	WeightedSDC        float64 `json:"weighted_sdc"`
	WeightedErrorBar95 float64 `json:"weighted_error_bar_95"`
	Cached             bool    `json:"cached"`
}

// jobSpec is one submission of a block. repeatOf is the index of the
// earlier submission it repeats, or -1.
type jobSpec struct {
	kernel, design string
	repeatOf       int
}

func (s jobSpec) key() string { return s.kernel + "/" + s.design }

// makeBlock draws one block of submissions: every (kernel, design) tuple
// once in a seeded order, plus one repeat per three tuples (about one
// submission in four), each placed after the submission it repeats.
func makeBlock(rng *rand.Rand, kernels []string) []jobSpec {
	var b []jobSpec
	for _, i := range rng.Perm(len(kernels) * len(designs)) {
		b = append(b, jobSpec{kernels[i/len(designs)], designs[i%len(designs)], -1})
	}
	originals := len(b)
	for r := 0; r < originals/3; r++ {
		orig := rng.IntN(len(b))
		for b[orig].repeatOf >= 0 {
			orig = b[orig].repeatOf
		}
		pos := orig + 1 + rng.IntN(len(b)-orig)
		rep := jobSpec{b[orig].kernel, b[orig].design, orig}
		b = append(b[:pos], append([]jobSpec{rep}, b[pos:]...)...)
		for i := pos + 1; i < len(b); i++ {
			if b[i].repeatOf >= pos {
				b[i].repeatOf++
			}
		}
	}
	return b
}

// liveServer is one in-process campaign server behind its HTTP handler
// on loopback.
type liveServer struct {
	srv    *server.Server
	http   *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

// startServer builds and starts a server over a fresh spool with the
// result cache on and in-process shard workers, and waits until its
// health endpoint answers.
func startServer(spool string, workers int, reg *telemetry.Registry) (*liveServer, error) {
	srv, err := server.New(server.Config{
		Spool:             spool,
		ResultCacheDir:    filepath.Join(spool, "result-cache"),
		MaxConcurrentJobs: workers,
		DefaultShards:     workers,
		WorkerMode:        "inproc",
		Metrics:           reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start()
	ls := &liveServer{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			// A job that has not finished within the timeout fails instead
			// of stalling the run.
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers},
		},
	}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln)
	}()
	resp, err := ls.client.Get(ls.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop shuts the HTTP surface and drains the server, waiting for both.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ls.http.Shutdown(ctx)
	<-ls.done
	ls.srv.Drain(ctx)
	ls.client.CloseIdleConnections()
}

// jobOutcome is one finished submission as the client saw it. The
// submit and queue-wait times are set only in traced runs.
type jobOutcome struct {
	spec                  jobSpec
	latencyMS             float64
	submitMS, queueWaitMS float64
	norm                  []byte // result JSON with the job identity cleared
	res                   jobResult
	err                   error
}

// jobTrace places one job's client-side spans; nil in untraced runs.
type jobTrace struct {
	tr         *tracer
	parent, op int
}

func (jt *jobTrace) begin(name, layer string) int {
	if jt == nil {
		return 0
	}
	return jt.tr.begin(jt.parent, jt.op, name, layer)
}

// end closes span id and returns its duration in milliseconds.
func (jt *jobTrace) end(id int) float64 {
	if jt == nil {
		return 0
	}
	jt.tr.end(id)
	return jt.tr.durMS(id)
}

// doJob submits one job, follows its event stream to a terminal state and
// fetches its result.
func (ls *liveServer) doJob(spec jobSpec, fiSeed uint64, workers int, jt *jobTrace) jobOutcome {
	out := jobOutcome{spec: spec}
	req := submitRequest{
		Program: spec.kernel, N: serverN, Seed: fiSeed, Shards: workers, Workers: 1,
		PruneBits: spec.design == "prune", Stratify: spec.design == "stratify",
		StratifyAdaptive: spec.design == "adaptive",
	}
	body, err := json.Marshal(req)
	if err != nil {
		out.err = err
		return out
	}
	start := time.Now()
	span := jt.begin("POST /jobs", "server.http")
	var sub struct {
		ID string `json:"id"`
	}
	err = ls.call(http.MethodPost, "/jobs", bytes.NewReader(body), http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&sub)
	})
	out.submitMS = jt.end(span)
	if err != nil {
		out.err = err
		return out
	}
	span = jt.begin("queue", "server.queue")
	running := false
	err = ls.call(http.MethodGet, "/jobs/"+sub.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			var ev struct{ Type, State string }
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return err
			}
			if !running && ev.State != "queued" {
				running = true
				out.queueWaitMS = jt.end(span)
				span = jt.begin("run", "server.run")
			}
			if ev.Type == "done" {
				return nil
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return errors.New("event stream ended before a terminal state")
	})
	jt.end(span)
	if err != nil {
		out.err = err
		return out
	}
	span = jt.begin("GET result", "server.http")
	var raw []byte
	err = ls.call(http.MethodGet, "/jobs/"+sub.ID+"/result", nil, http.StatusOK, func(r io.Reader) error {
		raw, err = io.ReadAll(r)
		return err
	})
	jt.end(span)
	out.latencyMS = ms(time.Since(start))
	if err == nil {
		out.norm, out.res, err = normalizeResult(raw)
	}
	if err == nil && (out.res.State != "done" || out.res.Missing != 0) {
		err = fmt.Errorf("job %s: state %s with %d missing trials", spec.key(), out.res.State, out.res.Missing)
	}
	out.err = err
	return out
}

// call performs one request and hands the body to read when the status is
// want; any other status is a failure.
func (ls *liveServer) call(method, path string, body io.Reader, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, ls.base+path, body)
	if err != nil {
		return err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	io.Copy(io.Discard, resp.Body)
	return err
}

// normalizeResult clears the job identity (id, cached) from a wire result
// and re-encodes it canonically, so a cache hit and the first run of the
// same campaign compare byte for byte.
func normalizeResult(raw []byte) ([]byte, jobResult, error) {
	var res jobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, res, fmt.Errorf("result: %w", err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, res, fmt.Errorf("result: %w", err)
	}
	delete(fields, "id")
	delete(fields, "cached")
	norm, err := json.Marshal(fields)
	return norm, res, err
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ci95 is a job's 95% CI half-width on its SDC estimate: the weighted
// interval for stratified designs.
func (r jobResult) ci95() float64 {
	if r.Stratified {
		return r.WeightedErrorBar95
	}
	return r.ErrorBar95
}

func (r jobResult) sdc() float64 {
	if r.Stratified {
		return r.WeightedSDC
	}
	return r.SDCProb
}

// blockRun is one block's outcome.
type blockRun struct {
	wallS float64
	jobs  []jobOutcome
}

// runBlock runs one block on a fresh server: the workload's clients each
// take the next submission, run it to completion and take another. A
// repeat waits until the submission it repeats has finished, so the
// result cache can answer it.
func (c *config) runBlock(block []jobSpec, spool string, tr *tracer, reg *telemetry.Registry) (blockRun, error) {
	ls, err := startServer(spool, c.workers, reg)
	if err != nil {
		return blockRun{}, err
	}
	defer func() {
		ls.stop()
		os.RemoveAll(spool)
	}()
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	run := blockRun{jobs: make([]jobOutcome, len(block))}
	finished := make([]chan struct{}, len(block))
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	start := time.Now()
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := 0
			if tr != nil {
				root = tr.begin(0, 0, "client", "")
				defer tr.end(root)
			}
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(block) {
					return
				}
				if r := block[i].repeatOf; r >= 0 {
					<-finished[r]
				}
				var jt *jobTrace
				if tr != nil {
					jt = &jobTrace{tr: tr, parent: tr.begin(root, i+1, "job", ""), op: i + 1}
				}
				run.jobs[i] = ls.doJob(block[i], c.fiSeed, c.workers, jt)
				if jt != nil {
					tr.end(jt.parent)
				}
				close(finished[i])
			}
		}()
	}
	wg.Wait()
	run.wallS = time.Since(start).Seconds()
	return run, nil
}

// runServer is the fi-server workload: block after block, a fresh
// in-process server takes the block's submissions from the workload's
// closed-loop clients over HTTP.
func runServer(c *config) (*result, error) {
	spools := 0
	spool := func() string {
		spools++
		return filepath.Join(c.workDir, fmt.Sprintf("spool-%d", spools))
	}
	names := c.kernelNames()
	setup, err := newSetupTimer(func() (func(), error) {
		if _, err := c.loadKernels(); err != nil {
			return nil, err
		}
		ls, err := startServer(spool(), c.workers, nil)
		if err != nil {
			return nil, err
		}
		return ls.stop, nil
	}, c.seconds)
	if err != nil {
		return nil, err
	}
	if err := c.warmServer(spool()); err != nil {
		return nil, err
	}
	res := &result{}
	rng := newRand(c.seed, 3)
	perKind := map[string][]float64{}
	ci := map[string]float64{}
	var ops, passes []float64
	start := time.Now()
	for len(passes) < c.minPasses || !c.deadline(start) {
		if _, err := setup.tick(); err != nil {
			return nil, err
		}
		run, err := c.runBlock(makeBlock(rng, names), spool(), nil, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, run.wallS)
		for i, j := range run.jobs {
			if !res.record(c.workload, c.checkJob(run, i)) {
				continue
			}
			ops = append(ops, j.latencyMS)
			kind := j.spec.key()
			if j.res.Cached {
				kind = "cache-hit"
			}
			perKind[kind] = append(perKind[kind], j.latencyMS)
			ci[j.spec.key()] = 100 * j.res.ci95()
		}
	}
	var kinds, cis []float64
	for _, l := range perKind {
		kinds = append(kinds, median(l))
	}
	for _, k := range sortedKeys(ci) {
		cis = append(cis, ci[k])
	}
	res.Metrics = endToEnd(setup.seconds(), passes, ops, kinds, sum(cis)/float64(len(cis)))
	res.Correct = res.Failed == 0
	return res, nil
}

// warmServer runs one job per design on a throw-away server, untimed.
func (c *config) warmServer(spool string) error {
	var block []jobSpec
	for _, d := range designs {
		block = append(block, jobSpec{c.kernelNames()[0], d, -1})
	}
	run, err := c.runBlock(block, spool, nil, nil)
	if err != nil {
		return err
	}
	for _, j := range run.jobs {
		if j.err != nil {
			return j.err
		}
	}
	return nil
}

// checkJob requires job i of a block to match the committed table, and a
// repeat to equal its first submission byte for byte.
func (c *config) checkJob(run blockRun, i int) error {
	j := run.jobs[i]
	if j.err != nil {
		return j.err
	}
	want, ok := c.tables.Server[seedKey(c.fiSeed)][j.spec.key()]
	if !ok {
		return fmt.Errorf("%s: no committed result for FI seed %d", j.spec.key(), c.fiSeed)
	}
	if got := digest(j.norm); got != want.SHA256 {
		return fmt.Errorf("%s: result digest %s, want %s", j.spec.key(), got, want.SHA256)
	}
	if r := j.spec.repeatOf; r >= 0 && !bytes.Equal(j.norm, run.jobs[r].norm) {
		return fmt.Errorf("%s: repeated submission differs from the first", j.spec.key())
	}
	return nil
}

// traceServer is fi-server's traced run: traceBlocks pairs of blocks,
// each pair one block untraced and the same block traced on another fresh
// server, alternating which goes first. Traced blocks carry client-side
// spans around each HTTP call and around the job's queued and running
// phases, as read from its event stream. Bit-liveness analysis and
// result-cache reads and writes, which run inside the server, are timed
// directly.
func traceServer(c *config) (*result, error) {
	names := c.kernelNames()
	if err := c.warmServer(filepath.Join(c.workDir, "warm")); err != nil {
		return nil, err
	}
	res := &result{Metrics: layerMetrics()}
	m := res.Metrics
	reg := telemetry.NewRegistry()
	tr := newTracer()
	rng := newRand(c.seed, 3)
	var (
		untracedMS, tracedMS float64
		traced               []jobOutcome
		last                 blockRun
		err                  error
	)
	for b := 0; b < traceBlocks; b++ {
		block := makeBlock(rng, names)
		check := func(run blockRun) {
			for i := range run.jobs {
				res.record(c.workload, c.checkJob(run, i))
			}
		}
		interleaved(b, func() {
			var run blockRun
			if run, err = c.runBlock(block, filepath.Join(c.workDir, fmt.Sprintf("untraced-%d", b)), nil, nil); err == nil {
				untracedMS += 1000 * run.wallS
				check(run)
			}
		}, func() {
			var run blockRun
			if run, err = c.runBlock(block, filepath.Join(c.workDir, fmt.Sprintf("traced-%d", b)), tr, reg); err == nil {
				tracedMS += 1000 * run.wallS
				traced = append(traced, run.jobs...)
				last = run
				check(run)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if err := tr.write(c.traceOut); err != nil {
		return nil, err
	}
	var submit, queue, hits []float64
	byDesign := map[string][]float64{}
	for _, j := range traced {
		submit = append(submit, j.submitMS)
		queue = append(queue, j.queueWaitMS)
		if j.res.Cached {
			hits = append(hits, j.latencyMS)
		} else {
			byDesign[j.spec.design] = append(byDesign[j.spec.design], j.latencyMS)
		}
	}
	m["server.submit_ms"] = metric{median(submit), "ms"}
	m["server.queue_wait_ms"] = metric{median(queue), "ms"}
	for _, d := range designs {
		m["server.job_ms."+d] = metric{median(byDesign[d]), "ms"}
	}
	m["server.job_ms.cache_hit"] = metric{median(hits), "ms"}
	m["server.cache_hit_frac"] = metric{float64(len(hits)) / float64(len(traced)), "frac"}
	m["server.shards.retries"] = metric{float64(reg.Snapshot().Counters["server.shards.retries"]), "count"}
	res.record(c.workload, tr.reconcile(m, tracedMS, untracedMS, c.workers))

	if err := timeBitlive(c, m); err != nil {
		return nil, err
	}
	if err := timeCache(c, last, m); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// timeBitlive times the bit-liveness analysis and influence
// classification that prune, stratify and adaptive jobs run, over every
// kernel.
func timeBitlive(c *config, m map[string]metric) error {
	mods, err := c.loadKernels()
	if err != nil {
		return err
	}
	var analyze, classify time.Duration
	for _, mod := range mods {
		start := time.Now()
		r := bitlive.Analyze(mod)
		analyze += time.Since(start)
		start = time.Now()
		bitlive.ClassifyInfluence(mod, r)
		classify += time.Since(start)
	}
	m["bitlive.analyze_ms"] = metric{ms(analyze), "ms"}
	m["bitlive.classify_ms"] = metric{ms(classify), "ms"}
	return nil
}

// timeCache writes every distinct job result of a block into a fresh
// content-addressed store and reads each back, reporting the mean time
// per Put and per Get.
func timeCache(c *config, run blockRun, m map[string]metric) error {
	st, err := cache.Open(filepath.Join(c.workDir, "cache"), cache.Options{})
	if err != nil {
		return err
	}
	payloads := map[string]json.RawMessage{}
	for _, j := range run.jobs {
		if j.err == nil {
			payloads[j.spec.key()] = j.norm
		}
	}
	var put, get time.Duration
	for k, p := range payloads {
		start := time.Now()
		if err := st.Put(k, p); err != nil {
			return err
		}
		put += time.Since(start)
	}
	for k := range payloads {
		var p json.RawMessage
		start := time.Now()
		if !st.Get(k, &p) {
			return fmt.Errorf("cache: %s missing after Put", k)
		}
		get += time.Since(start)
	}
	n := float64(len(payloads))
	m["cache.put_ms"] = metric{ms(put) / n, "ms"}
	m["cache.get_ms"] = metric{ms(get) / n, "ms"}
	return nil
}

// serverTable runs every (kernel, design) job once at FI seed s on a
// fresh server and records its committed entry.
func serverTable(c *config, s uint64) (map[string]serverEntry, error) {
	var block []jobSpec
	for _, k := range c.kernelNames() {
		for _, d := range designs {
			block = append(block, jobSpec{k, d, -1})
		}
	}
	dir, err := os.MkdirTemp(buildDir(), "expected-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c.fiSeed = s
	run, err := c.runBlock(block, filepath.Join(dir, "spool"), nil, nil)
	if err != nil {
		return nil, err
	}
	out := map[string]serverEntry{}
	for _, j := range run.jobs {
		if j.err != nil {
			return nil, j.err
		}
		out[j.spec.key()] = serverEntry{SHA256: digest(j.norm), SDC: j.res.sdc(), CI95: j.res.ci95()}
	}
	return out, nil
}
