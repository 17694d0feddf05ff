// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed measuring window, checks that the program's outputs are
// correct, and prints one JSON result line:
//
//	perfbench --workload <sweep|torus|verify|service> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, read from spans the benchmark records around
// its own calls into the program and from the hooks the program already has.
// README.md explains the workloads and which metric each layer moves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// sourceTree is a digest of the repository's Go sources, set by run.sh at
// link time. It identifies the measured code when the checkout carries no
// git metadata.
var sourceTree = "unknown"

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// tiny shrinks every workload to a smoke-test size.
	tiny bool
	// traceDir receives the span file of a traced run.
	traceDir string
	procs    int
	// tamper, when set, may alter a value before its correctness check. Only
	// tests set it, to show that a corrupted digest or checksum fails the run.
	tamper func(check, value string) string
}

// check passes value through the tamper hook.
func (c *config) check(name, value string) string {
	if c.tamper == nil {
		return value
	}
	return c.tamper(name, value)
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	// violations lists failed correctness checks; any makes the run fail.
	violations []string
	metrics    map[string]float64
	// samples counts the operations each latency percentile rests on.
	samples map[string]int
	// params are the workload parameters the result is tagged with.
	params map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, params: map[string]any{}}
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*config) (*outcome, error){
	"sweep":   runSweep,
	"torus":   runTorus,
	"verify":  runVerify,
	"service": runService,
}

// errViolation marks a run whose correctness checks failed.
var errViolation = errors.New("correctness check failed")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, runs the workload and writes the report to stdout. It
// returns errViolation (after printing the result) when a correctness check
// failed, and any other error before printing one.
func run(args []string, stdout, stderr io.Writer, tamper func(check, value string) string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep, torus, verify or service")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "length of the measuring window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrink the workload to a smoke-test size")
	traceDir := fs.String("trace-dir", ".bench_build/perfbench-trace", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("invalid --seconds %v or --trace %d", *seconds, *trace)
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		tiny:     *tiny,
		traceDir: *traceDir,
		procs:    runtime.GOMAXPROCS(0),
		tamper:   tamper,
	}
	out, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return report(cfg, out, stdout, stderr)
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the tag line and the result line. Every declared metric of
// the run's kind is printed; a per-layer metric of a layer the workload does
// not exercise reads 0.
func report(cfg *config, out *outcome, stdout, stderr io.Writer) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultLine{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
		out.violate("no operation completed in the window")
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	for _, v := range out.violations {
		fmt.Fprintln(stderr, "perfbench: violation:", v)
	}
	tags := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.window.Seconds(),
		"trace":       cfg.trace,
		"commit":      vcsRevision(),
		"source_tree": sourceTree,
		"go":          runtime.Version(),
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  cfg.procs,
		"params":      out.params,
		"samples":     out.samples,
	}
	if cfg.trace && runtime.NumCPU() < 2 {
		tags["shard_speedup_note"] = "NumCPU < 2: sim.shard_speedup is not evidence of parallel speedup"
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"tags": tags}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return errViolation
	}
	return nil
}

// vcsRevision is the commit the binary was built from, when the build saw
// git metadata.
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// metricDef declares one reported metric. The tables mirror BENCHMARK.json;
// a test keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

var perLayer = []metricDef{
	// sim: sequential engine, memo and sharded engine.
	{"sim.guard_eval_share", "ratio"},
	{"sim.memo_hit_rate", "ratio"},
	{"sim.enabled_ns.unison", "ns"},
	{"sim.enabled_ns.dominating-set", "ns"},
	{"sim.enabled_ns.bfstree", "ns"},
	{"sim.trial_execute_ms.p50", "ms"},
	{"sim.trial_execute_ms.p99", "ms"},
	{"sim.ns_per_move", "ns"},
	{"sim.allocs_per_move", "count"},
	{"sim.alloc_bytes_per_move", "B"},
	{"sim.phase_share.select", "ratio"},
	{"sim.phase_share.execute", "ratio"},
	{"sim.phase_share.merge", "ratio"},
	{"sim.phase_share.boundary_exchange", "ratio"},
	{"sim.phase_share.account", "ratio"},
	{"sim.serial_share", "ratio"},
	{"sim.shard_speedup", "ratio"},
	{"sim.shard_execute_imbalance", "ratio"},
	// scenario and graph.
	{"scenario.resolve_us", "us"},
	{"graph.build_ms", "ms"},
	{"scenario.verify_starts_ms", "ms"},
	// bench worker pool and campaign stream.
	{"bench.pool_busy", "ratio"},
	{"campaign.marshal_ns_per_record", "ns"},
	{"campaign.records_per_s", "1/s"},
	// checker.
	{"checker.configs", "count"},
	{"checker.transitions", "count"},
	{"checker.new_config_ratio", "ratio"},
	{"checker.bytes_per_config", "B"},
	{"checker.explore_ms.p50", "ms"},
	// server.
	{"server.submit_ms.p50", "ms"},
	{"server.submit_ms.p99", "ms"},
	{"server.first_record_ms.p50", "ms"},
	{"server.stream_ms.p50", "ms"},
	{"server.dedup_ratio", "ratio"},
	{"server.rejected_share", "ratio"},
	{"server.queue_depth_max", "count"},
	{"server.job_run_ms.p50", "ms"},
	// Go runtime.
	{"runtime.gc_cpu_fraction", "ratio"},
	// The benchmark's own tracing.
	{"trace.overhead_share", "ratio"},
	{"trace.self_share.bench", "ratio"},
	{"trace.self_share.campaign", "ratio"},
	{"trace.self_share.scenario", "ratio"},
	{"trace.self_share.sim", "ratio"},
	{"trace.self_share.server", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
