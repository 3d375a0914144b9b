package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one operation share op. Root spans
// (parent 0) are one operation each on model-predict and fi-campaign, and
// one client's share of a block on fi-server.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(parent, op int, name, layer string) int {
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do wraps f in a span.
func (t *tracer) do(parent, op int, name, layer string, f func()) {
	id := t.begin(parent, op, name, layer)
	defer t.end(id)
	f()
}

// durMS returns span id's duration in milliseconds.
func (t *tracer) durMS(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1000
}

// selfMS sums each layer's self time — a span's duration minus the part
// its children cover — in milliseconds. Spans without a layer (the
// per-operation and per-client roots) are the benchmark's own time and
// come back under "".
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Layer] += float64(s.End-s.Start-child[s.ID]) / 1000
	}
	return self
}

// write dumps every span as JSONL.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reconcileTol bounds |trace.reconcile_err_frac|. Beyond it the layers no
// longer account for the untraced wall time and the traced run counts a
// failed check. Measured errors stay within ±15%, most of it the host's
// speed drift between an operation and its untraced twin.
const reconcileTol = 0.25

// reconcile turns a traced pass into the tracing figures. tracedMS and
// untracedMS are the wall times of the same work with tracing on and off;
// clients is how many closed-loop clients shared that wall, so the layers
// can account for at most clients × wall.
func (t *tracer) reconcile(m map[string]metric, tracedMS, untracedMS float64, clients int) error {
	self := t.selfMS()
	layered := 0.0
	for _, layer := range traceLayers {
		m["self_ms."+layer] = metric{self[layer], "ms"}
		layered += self[layer]
	}
	n := float64(clients)
	m["trace.overhead_frac"] = metric{(tracedMS - untracedMS) / untracedMS, "frac"}
	m["trace.unattributed_frac"] = metric{1 - layered/(n*tracedMS), "frac"}
	errFrac := layered/(n*untracedMS) - 1
	m["trace.reconcile_err_frac"] = metric{errFrac, "frac"}
	if !(math.Abs(errFrac) <= reconcileTol) {
		return fmt.Errorf("layer self times sum to %.0f ms against %.0f ms untraced (error %.3f, tolerance %.2f)", layered, n*untracedMS, errFrac, reconcileTol)
	}
	return nil
}

// spanSums sums span durations by span name, in milliseconds.
func (t *tracer) spanSums() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start) / 1000
	}
	return out
}

// rootMS sums the durations of the root spans.
func (t *tracer) rootMS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, s := range t.spans {
		if s.Parent == 0 {
			total += float64(s.End-s.Start) / 1000
		}
	}
	return total
}

// interleaved runs one operation untraced and traced back to back,
// alternating which goes first, so drift in the host's speed falls on both
// alike.
func interleaved(op int, untraced, traced func()) {
	if op%2 == 0 {
		untraced()
		traced()
	} else {
		traced()
		untraced()
	}
}
