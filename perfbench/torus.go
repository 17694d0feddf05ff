package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"sdr/internal/obs"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

// Torus workload size: a 256×256 torus and a step budget that makes one run
// about a second on two CPUs.
const (
	torusN      = 256 * 256
	torusSteps  = 12
	torusShards = 2
)

func torusSpec(cfg *config) scenario.Spec {
	s := scenario.Spec{
		Algorithm: "unison",
		Topology:  "torus",
		N:         torusN,
		Daemon:    "synchronous",
		Fault:     "random-all",
		Seed:      cfg.seed,
		MaxSteps:  torusSteps,
		Shards:    torusShards,
	}
	if cfg.tiny {
		s.N = 16 * 16
	}
	return s
}

// checksum is the FNV-64a hash of the rendered per-process states, the
// final-state fingerprint bench.RunShardBench compares across shard counts.
func checksum(c *sim.Configuration) string {
	h := fnv.New64a()
	c.ForEach(func(_ int, s sim.State) {
		h.Write([]byte(s.String()))
		h.Write([]byte{'|'})
	})
	return fmt.Sprintf("%016x", h.Sum64())
}

func runTorus(cfg *config) (*outcome, error) {
	out := newOutcome()
	spec := torusSpec(cfg)
	var run *scenario.Run
	// Set-up is Spec.Resolve, which builds the CSR graph and the start.
	setup, err := setupMedian(9, func() (err error) {
		run, err = spec.Resolve()
		return err
	}, func() {
		// Release the previous set-up's graph before timing the next.
		run = nil
		runtime.GC()
	})
	if err != nil {
		return nil, err
	}
	out.params["spec"] = spec
	out.params["work_unit"] = "moves"

	// Every op runs the same steps from the same start without the
	// registry's stop-at-legitimacy option (bench.RunShardBench does the
	// same): after the few steps random-all needs to converge, unison keeps
	// every process enabled, so the budget measures steady-state moves.
	var sums []string
	var profs []*obs.PhaseProfiler
	var mallocs, allocB uint64
	op := func(i int, tr *tracer) (float64, error) {
		opts := []sim.Option{sim.WithMaxSteps(torusSteps), sim.WithShards(torusShards)}
		if tr != nil {
			p := obs.NewPhaseProfiler(1)
			profs = append(profs, p)
			opts = append(opts, sim.WithProfiler(p))
		}
		var res sim.Result
		var err error
		exec := func() {
			root := tr.begin("bench.torus_run", 0, i)
			sp := tr.begin("sim.Engine.Run", root, i)
			res, err = run.Engine.RunE(run.Start, opts...)
			tr.end(sp)
			tr.end(root)
		}
		if tr != nil {
			m, b := allocDelta(exec)
			mallocs += m
			allocB += b
		} else {
			exec()
		}
		if err != nil {
			return 0, err
		}
		// The checksum is part of the op so the final state is consumed;
		// it is cheap next to the steps.
		sums = append(sums, checksum(res.Final))
		return float64(res.Moves), nil
	}
	untraced, traced, tr, err := measureOps(cfg, op)
	if err != nil {
		return nil, err
	}
	out.e2e(setup, untraced)
	out.metrics["peak_rss_mb"] = peakRSSMB()

	// Synchronous sharding is exact: the sequential engine is the reference
	// checksum. Timed like an op, it also gives the shard speedup; a traced
	// run takes the median of three.
	var want string
	var seqSecs []float64
	for k := 0; k < 1 || (cfg.trace && k < 3); k++ {
		start := time.Now()
		ref, err := run.Engine.RunE(run.Start, sim.WithMaxSteps(torusSteps))
		if err != nil {
			return nil, err
		}
		want = checksum(ref.Final)
		seqSecs = append(seqSecs, time.Since(start).Seconds())
	}
	out.params["checksum"] = want
	for i, got := range sums {
		out.attempted++
		if cfg.check("torus.checksum", got) != want {
			out.failed++
			out.violate("run %d: final checksum %s, sequential engine %s", i, got, want)
		}
	}

	if cfg.trace {
		var moves, execNS float64
		for _, s := range traced {
			moves += s.work
			execNS += float64(s.dur.Nanoseconds())
		}
		if moves > 0 {
			out.metrics["sim.ns_per_move"] = execNS / moves
			out.metrics["sim.allocs_per_move"] = float64(mallocs) / moves
			out.metrics["sim.alloc_bytes_per_move"] = float64(allocB) / moves
		}
		torusPhases(out, profs)
		out.metrics["sim.shard_speedup"] = median(seqSecs) * 1e3 / median(millis(untraced))
		out.metrics["graph.build_ms"] = setup * 1e3
		return out, out.finishTrace(cfg, tr, medianRate(untraced), medianRate(traced))
	}
	return out, nil
}

// torusPhases turns the phase profiles of the traced runs into shares of
// the sampled step time, and the per-shard execute totals into an imbalance
// ratio (max over mean).
func torusPhases(out *outcome, profs []*obs.PhaseProfiler) {
	var stepWall time.Duration
	phase := map[string]time.Duration{}
	var shardExec []time.Duration
	for _, p := range profs {
		ep := p.Profile()
		stepWall += ep.StepWall
		for _, ph := range ep.Phases {
			phase[ph.Phase] += ph.Total
		}
		for _, sb := range ep.Shards {
			for len(shardExec) <= sb.Shard {
				shardExec = append(shardExec, 0)
			}
			for _, ph := range sb.Phases {
				if ph.Phase == obs.PhaseExecute {
					shardExec[sb.Shard] += ph.Total
				}
			}
		}
	}
	if stepWall <= 0 {
		return
	}
	share := func(name string) float64 { return float64(phase[name]) / float64(stepWall) }
	for _, name := range []string{obs.PhaseSelect, obs.PhaseExecute, obs.PhaseMerge, obs.PhaseBoundary, obs.PhaseAccount} {
		out.metrics["sim.phase_share."+name] = share(name)
	}
	out.metrics["sim.serial_share"] = share(obs.PhaseSelect) + share(obs.PhaseMerge) + share(obs.PhaseAccount)
	var max, sum time.Duration
	for _, d := range shardExec {
		sum += d
		if d > max {
			max = d
		}
	}
	if sum > 0 {
		out.metrics["sim.shard_execute_imbalance"] = float64(max) * float64(len(shardExec)) / float64(sum)
	}
}
