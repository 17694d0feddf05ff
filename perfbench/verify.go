package main

import (
	"fmt"
	"runtime"
	"time"

	"sdr/internal/checker"
	"sdr/internal/scenario"
)

// Verify workload: 16 seeded starts per cell and central-daemon selections
// (cap 1) keep one pass over the eight cells near three seconds on two CPUs.
const (
	verifyStarts    = 16
	verifySelection = 1
)

// verifySpecs are the cells one verify pass certifies.
func verifySpecs(cfg *config, seed int64) []scenario.Spec {
	sizes := []int{7, 8}
	if cfg.tiny {
		sizes = []int{4}
	}
	var specs []scenario.Spec
	for _, alg := range []string{"unison", "dominating-set"} {
		for _, top := range []string{"ring", "path"} {
			for _, n := range sizes {
				specs = append(specs, scenario.Spec{
					Algorithm: alg, Topology: top, N: n,
					Daemon: "central-random", Fault: "random-all", Seed: seed,
				})
			}
		}
	}
	return specs
}

// cellCounts renders the coverage counters a cell's verification must
// repeat exactly.
func cellCounts(r checker.ExploreReport) string {
	return fmt.Sprintf("configs=%d transitions=%d depth=%d terminal=%d legitimate=%d",
		r.Configurations, r.Transitions, r.Depth, r.TerminalConfigurations, r.LegitimateConfigurations)
}

// resolveCells resolves every cell spec.
func resolveCells(specs []scenario.Spec) ([]*scenario.Run, error) {
	runs := make([]*scenario.Run, len(specs))
	for i, s := range specs {
		var err error
		if runs[i], err = s.Resolve(); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

func runVerify(cfg *config) (*outcome, error) {
	out := newOutcome()
	var runs []*scenario.Run
	var startsMS []float64
	// Set-up resolves every cell and draws its seeded starts.
	setup, err := setupMedian(9, func() (err error) {
		if runs, err = resolveCells(verifySpecs(cfg, cfg.seed)); err != nil {
			return err
		}
		for _, r := range runs {
			start := time.Now()
			if _, err := r.VerifyStarts(verifyStarts); err != nil {
				return err
			}
			startsMS = append(startsMS, float64(time.Since(start).Nanoseconds())/1e6)
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out.params["cells"] = verifySpecs(cfg, cfg.seed)
	out.params["pass_seed_stride"] = passSeedStride
	out.params["starts"] = verifyStarts
	out.params["max_selection_size"] = verifySelection
	out.params["workers"] = cfg.procs
	out.params["work_unit"] = "configurations"

	// One op is a pass over every cell. Like the sweep, every pass draws
	// fresh seeds, because a pass's explored space moves with its seed; the
	// first pass runs on the set-up's cells and its reports are kept for
	// the reference check.
	opts := scenario.VerifyOptions{Starts: verifyStarts, MaxSelectionSize: verifySelection, Workers: cfg.procs}
	var first []checker.ExploreReport
	var exploreMS []float64
	passes := 0
	pass := func(i int, tr *tracer) (float64, error) {
		root := tr.begin("bench.verify_pass", 0, i)
		defer tr.end(root)
		cells := runs
		if passes > 0 {
			var err error
			if cells, err = resolveCells(verifySpecs(cfg, cfg.seed+int64(passes)*passSeedStride)); err != nil {
				return 0, err
			}
		}
		configs := 0
		for _, r := range cells {
			sp := tr.begin("scenario.Run.Verify", root, i)
			start := time.Now()
			rep, err := r.Verify(opts)
			if tr != nil {
				exploreMS = append(exploreMS, float64(time.Since(start).Nanoseconds())/1e6)
			}
			tr.end(sp)
			out.attempted++
			if err != nil || !rep.Complete {
				out.failed++
				out.violate("%s/%s n=%d seed %d: not certified (complete=%v): %v",
					r.Spec.Algorithm, r.Spec.Topology, r.Spec.N, r.Spec.Seed, rep.Complete, err)
			}
			if passes == 0 {
				first = append(first, rep)
			}
			configs += rep.Configurations
		}
		passes++
		return float64(configs), nil
	}

	untraced, traced, tr, err := measureOps(cfg, pass)
	if err != nil {
		return nil, err
	}
	out.e2e(setup, untraced)
	out.metrics["peak_rss_mb"] = peakRSSMB()

	// Reports are bit-identical for every worker count, so a sequential
	// exploration of the first pass's cells must repeat its counts. In a
	// traced run it also weighs the live heap of the largest cell's
	// explored set.
	seq := opts
	seq.Workers = 1
	var configs, transitions, bytesPerConfig float64
	biggest := 0
	for c, r := range runs {
		var heap float64
		if cfg.trace {
			seq.Progress = liveHeapAtEnd(&heap)
		}
		rep, err := r.Verify(seq)
		if err != nil {
			return nil, fmt.Errorf("sequential reference: %w", err)
		}
		configs += float64(rep.Configurations)
		transitions += float64(rep.Transitions)
		if rep.Configurations > biggest {
			biggest, bytesPerConfig = rep.Configurations, heap/float64(rep.Configurations)
		}
		if got, want := cfg.check("verify.counts", cellCounts(first[c])), cellCounts(rep); got != want {
			out.violate("%s/%s n=%d: %s, sequential reference %s",
				r.Spec.Algorithm, r.Spec.Topology, r.Spec.N, got, want)
		}
	}
	out.params["configs_per_pass"] = configs
	out.params["transitions_per_pass"] = transitions

	if cfg.trace {
		out.metrics["checker.configs"] = configs
		out.metrics["checker.transitions"] = transitions
		out.metrics["checker.new_config_ratio"] = configs / transitions
		out.metrics["checker.bytes_per_config"] = bytesPerConfig
		out.metrics["checker.explore_ms.p50"] = median(exploreMS)
		out.samples["explore_ms"] = len(exploreMS)
		out.metrics["scenario.verify_starts_ms"] = median(startsMS)
		return out, out.finishTrace(cfg, tr, medianRate(untraced), medianRate(traced))
	}
	return out, nil
}

// liveHeapAtEnd returns an exploration progress hook that stores in heap
// how much the live heap grew between the hook's creation and the last
// level, when the whole explored set is still held.
func liveHeapAtEnd(heap *float64) func(checker.ExploreProgress) {
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	return func(p checker.ExploreProgress) {
		if p.Frontier != 0 {
			return
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		*heap = float64(ms.HeapAlloc) - float64(base.HeapAlloc)
	}
}
