package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

// sweepTrials is the per-cell trial count of the sweep workload: 36 cells ×
// 4 trials make one pass of about two seconds on two CPUs, so a window holds
// about ten passes.
const sweepTrials = 4

// sweepProfileEvery is the phase-profiler sampling period of traced passes.
const sweepProfileEvery = 4

// sweepSpec is the campaign one sweep pass runs: the cross-product of the
// algorithms, topologies and daemons of `sdrbench -campaign`, memo on.
func sweepSpec(cfg *config) campaign.Spec {
	s := campaign.Spec{
		ID:         "perfbench-sweep",
		Algorithms: []string{"unison", "dominating-set", "bfstree"},
		Topologies: []string{"ring", "grid", "random"},
		Daemons:    []string{"distributed-random", "central-random"},
		Faults:     []string{"random-all"},
		Sizes:      []int{32, 64},
		Seed:       cfg.seed,
		MinTrials:  sweepTrials,
	}
	if cfg.tiny {
		s.Sizes = []int{8}
		s.MinTrials = 2
	}
	return s
}

// digestSink is the campaign sink of the sweep: it renders every line with
// campaign.MarshalLine, as the file and server sinks do, hashes the lines
// and counts the trials that failed their check.
type digestSink struct {
	h              hash.Hash
	trials, failed int
	// records and marshal are kept for traced passes only.
	records []campaign.TrialRecord
	marshal time.Duration
	timed   bool
}

func newDigestSink(timed bool) *digestSink { return &digestSink{h: sha256.New(), timed: timed} }

func (s *digestSink) WriteLine(v any) error {
	var start time.Time
	if s.timed {
		start = time.Now()
	}
	line, err := campaign.MarshalLine(v)
	if err != nil {
		return err
	}
	if s.timed {
		s.marshal += time.Since(start)
	}
	s.h.Write(line)
	if rec, ok := v.(campaign.TrialRecord); ok {
		s.trials++
		if !rec.OK {
			s.failed++
		}
		if s.timed {
			s.records = append(s.records, rec)
		}
	}
	return nil
}

func (s *digestSink) digest() string { return hex.EncodeToString(s.h.Sum(nil)) }

// sweepPass is one timed campaign.RunSink call and what it produced; the
// allocation counts are taken on traced passes only.
type sweepPass struct {
	sink            *digestSink
	wall            time.Duration
	traced          bool
	mallocs, allocB uint64
}

func runSweep(cfg *config) (*outcome, error) {
	out := newOutcome()
	// Set-up is what `sdrbench -campaign` does before its first trial: parse
	// the spec file and validate it against the registries.
	specJSON, err := json.Marshal(sweepSpec(cfg))
	if err != nil {
		return nil, err
	}
	var spec campaign.Spec
	setup, err := setupMedian(25, func() error {
		spec = campaign.Spec{}
		if err := json.Unmarshal(specJSON, &spec); err != nil {
			return err
		}
		return spec.Validate()
	}, nil)
	if err != nil {
		return nil, err
	}
	out.params["spec"] = spec
	out.params["pass_seed_stride"] = passSeedStride
	out.params["parallel"] = cfg.procs
	out.params["work_unit"] = "trials"

	passSpec := func(p int) campaign.Spec {
		s := spec
		s.Seed += int64(p) * passSeedStride
		return s
	}
	var passes []sweepPass
	pass := func(i int, tr *tracer) (float64, error) {
		p := sweepPass{traced: tr != nil, sink: newDigestSink(tr != nil)}
		s := passSpec(len(passes))
		if p.traced {
			s.RecordTime = true
			s.ProfileSteps = sweepProfileEvery
		}
		var err error
		exec := func() {
			root := tr.begin("bench.sweep_pass", 0, i)
			sp := tr.begin("campaign.RunSink", root, i)
			start := time.Now()
			_, err = campaign.RunSink(s, p.sink, campaign.Options{Parallel: cfg.procs})
			p.wall = time.Since(start)
			tr.end(sp)
			tr.end(root)
		}
		if p.traced {
			p.mallocs, p.allocB = allocDelta(exec)
		} else {
			exec()
		}
		if err != nil {
			return 0, err
		}
		passes = append(passes, p)
		return float64(p.sink.trials), nil
	}
	untraced, traced, tr, err := measureOps(cfg, pass)
	if err != nil {
		return nil, err
	}
	out.e2e(setup, untraced)
	out.metrics["peak_rss_mb"] = peakRSSMB()

	// The stream is independent of Parallel, so a sequential run of the
	// first pass's spec must reproduce its digest. The first pass is never
	// traced, so its records carry no wall-clock fields.
	ref := newDigestSink(false)
	if _, err := campaign.RunSink(passSpec(0), ref, campaign.Options{Parallel: 1}); err != nil {
		return nil, err
	}
	want := ref.digest()
	if got := cfg.check("sweep.digest", passes[0].sink.digest()); got != want {
		out.violate("pass 0: stream digest %s, sequential reference %s", got, want)
	}
	for _, p := range passes {
		out.attempted += p.sink.trials
		out.failed += p.sink.failed
	}
	if out.failed > 0 {
		out.violate("%d of %d trials failed their correctness check", out.failed, out.attempted)
	}
	out.params["digest"] = want

	if cfg.trace {
		sweepLayers(cfg, tr, out, spec, passes)
		return out, out.finishTrace(cfg, tr, medianRate(untraced), medianRate(traced))
	}
	return out, nil
}

// sweepLayers derives the sim, scenario, bench and campaign metrics of the
// traced passes from their records and allocation counts, and from direct
// timings of Spec.Resolve and Evaluator.Enabled.
func sweepLayers(cfg *config, tr *tracer, out *outcome, spec campaign.Spec, passes []sweepPass) {
	var trialMS []float64
	var execNS, moves, stepNS, guardNS, hitSum, hitN, records, wall, mallocs, allocB float64
	var marshal time.Duration
	for _, p := range passes {
		if !p.traced {
			continue
		}
		mallocs += float64(p.mallocs)
		allocB += float64(p.allocB)
		wall += p.wall.Seconds()
		marshal += p.sink.marshal
		records += float64(p.sink.trials + 1) // + header
		for _, r := range p.sink.records {
			m := r.Metrics
			trialMS = append(trialMS, m[campaign.MetricDuration]/1e6)
			execNS += m[campaign.MetricDuration]
			moves += m[campaign.MetricMoves]
			// Per-step phase means weighted by the trial's steps.
			stepNS += m["phase_step_ns"] * m[campaign.MetricSteps]
			guardNS += m["phase_guard_eval_ns"] * m[campaign.MetricSteps]
			if h, ok := m[campaign.MetricMemoHitRate]; ok {
				hitSum += h
				hitN++
			}
		}
	}
	set := func(name string, num, den float64) {
		if den > 0 {
			out.metrics[name] = num / den
		}
	}
	set("sim.guard_eval_share", guardNS, stepNS)
	set("sim.memo_hit_rate", hitSum, hitN)
	out.metrics["sim.trial_execute_ms.p50"] = quantile(trialMS, 0.50)
	out.metrics["sim.trial_execute_ms.p99"] = quantile(trialMS, 0.99)
	out.samples["trial_execute_ms"] = len(trialMS)
	set("sim.ns_per_move", execNS, moves)
	set("sim.allocs_per_move", mallocs, moves)
	set("sim.alloc_bytes_per_move", allocB, moves)
	set("bench.pool_busy", execNS/1e9, float64(cfg.procs)*wall)
	set("campaign.marshal_ns_per_record", float64(marshal.Nanoseconds()), records)
	set("campaign.records_per_s", records, wall)

	// Resolve every trial spec of one pass, and time guard evaluation over
	// every process of each resolved start.
	sw := scenario.Sweep{
		Algorithms: spec.Algorithms, Topologies: spec.Topologies, Daemons: spec.Daemons,
		Faults: spec.Faults, Sizes: spec.Sizes, Seed: spec.Seed,
	}
	var resolveUS []float64
	enabled := map[string][]float64{}
	op := len(passes) + 1
	for _, cell := range sw.Cells() {
		for t := 0; t < spec.MinTrials; t++ {
			op++
			root := tr.begin("bench.resolve", 0, op)
			sp := tr.begin("scenario.Resolve", root, op)
			start := time.Now()
			run, err := sw.Trial(cell, t).Resolve()
			resolveUS = append(resolveUS, float64(time.Since(start).Nanoseconds())/1e3)
			tr.end(sp)
			tr.end(root)
			if err != nil {
				continue // unsatisfiable cells are skipped by the campaign too
			}
			enabled[cell.Algorithm] = append(enabled[cell.Algorithm], enabledNS(run))
		}
	}
	out.metrics["scenario.resolve_us"] = median(resolveUS)
	out.samples["resolve_us"] = len(resolveUS)
	for alg, ns := range enabled {
		out.metrics["sim.enabled_ns."+alg] = median(ns)
	}
}

// enabledNS is the mean time of one sim.Evaluator.Enabled call over every
// process of the run's start, repeated for at least a millisecond.
func enabledNS(run *scenario.Run) float64 {
	ev := sim.NewEvaluator(run.Alg, run.Net)
	n := run.Net.N()
	calls := 0
	start := time.Now()
	for time.Since(start) < time.Millisecond {
		for u := 0; u < n; u++ {
			ev.Enabled(run.Start, u)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
