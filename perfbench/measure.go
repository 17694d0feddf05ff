package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// passSeedStride separates the seeds of successive passes of the sweep and
// verify workloads. A pass's cost moves with its seed by several percent, so
// every pass draws fresh inputs and a run averages over all of them. The
// stride is a prime that keeps pass seeds clear of the trial seeds
// scenario.TrialSeedStride derives from them.
const passSeedStride = 104_729

// sample is one timed operation: how long it took and how much work it did.
type sample struct {
	dur  time.Duration
	work float64
}

func (s sample) rate() float64 { return s.work / s.dur.Seconds() }

// measureOps runs op over the configured window. In a traced run every
// other op gets the tracer, so traced and untraced ops see the same drift of
// the host's speed and their rates give the tracing overhead; an untraced
// run never passes one.
//
// Ops run back to back until the window has elapsed and at least three ran,
// each timed from its own start.
func measureOps(cfg *config, op func(i int, tr *tracer) (float64, error)) (untraced, traced []sample, tr *tracer, err error) {
	if cfg.trace {
		tr = newTracer()
	}
	begin := time.Now()
	for i := 0; i < 3 || time.Since(begin) < cfg.window; i++ {
		optr := tr
		if i%2 == 0 {
			optr = nil
		}
		start := time.Now()
		work, err := op(i, optr)
		if err != nil {
			return nil, nil, nil, err
		}
		s := sample{dur: time.Since(start), work: work}
		if optr != nil {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	return untraced, traced, tr, nil
}

// allocDelta is what the heap allocated while fn ran.
func allocDelta(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// medianRate is the median of the samples' work per second.
func medianRate(ss []sample) float64 {
	rates := make([]float64, len(ss))
	for i, s := range ss {
		rates[i] = s.rate()
	}
	return median(rates)
}

// millis returns the samples' durations in milliseconds.
func millis(ss []sample) []float64 {
	ms := make([]float64, len(ss))
	for i, s := range ss {
		ms[i] = float64(s.dur.Nanoseconds()) / 1e6
	}
	return ms
}

// setupMedian times reps calls of set and returns the median in seconds.
// teardown runs untimed between calls, so only the last set-up's state is
// kept.
func setupMedian(reps int, set func() error, teardown func()) (float64, error) {
	times := make([]float64, reps)
	for i := range times {
		if i > 0 && teardown != nil {
			teardown()
		}
		start := time.Now()
		if err := set(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// e2e fills the end-to-end metrics shared by every workload from the
// untraced samples: work per second is the median op rate, latency the op
// durations, each timed from its own start.
func (o *outcome) e2e(setup float64, ss []sample) {
	ms := millis(ss)
	o.metrics["setup_s"] = setup
	o.metrics["work_per_s"] = medianRate(ss)
	o.metrics["latency_p50_ms"] = quantile(ms, 0.50)
	o.metrics["latency_p99_ms"] = quantile(ms, 0.99)
	o.samples["latency_ms"] = len(ms)
	o.metrics["runtime.gc_cpu_fraction"] = gcCPUFraction()
}

// gcCPUFraction is the share of the process's CPU time the collector has
// used since the process started.
func gcCPUFraction() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.GCCPUFraction
}

// span is one traced call into a layer of the program. Spans of one
// benchmark operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's first component ("campaign" for
// "campaign.RunSink").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfShares returns each layer's self time (a span's duration minus the
// part of it its children cover) as a share of the root spans' total time.
func (t *tracer) selfShares() map[string]float64 {
	children := map[int][]span{}
	var total float64
	for _, s := range t.spans {
		if s.Parent == 0 {
			total += float64(s.End - s.Start)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.layer()] += float64(s.End-s.Start) - covered(children[s.ID])
	}
	shares := map[string]float64{}
	if total > 0 {
		for l, v := range self {
			shares[l] = v / total
		}
	}
	return shares
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) float64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var sum, lo, hi int64
	for i, s := range ss {
		if i == 0 || s.Start > hi {
			sum += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return float64(sum + hi - lo)
}

// write stores the spans as JSON lines in dir and returns the file's path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace records the trace-derived per-layer metrics, with the tracing
// overhead as the share of the untraced work rate the traced run lost, and
// writes the spans out.
func (o *outcome) finishTrace(cfg *config, tr *tracer, untracedRate, tracedRate float64) error {
	for _, l := range []string{"bench", "campaign", "scenario", "sim", "server"} {
		o.metrics["trace.self_share."+l] = 0
	}
	for l, v := range tr.selfShares() {
		o.metrics["trace.self_share."+l] = v
	}
	if untracedRate > 0 {
		o.metrics["trace.overhead_share"] = (untracedRate - tracedRate) / untracedRate
	}
	path, err := tr.write(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	o.params["trace_file"] = path
	o.samples["spans"] = len(tr.spans)
	return nil
}
