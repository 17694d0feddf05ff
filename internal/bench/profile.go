package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"sdr/internal/obs"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

// RunProfile runs one profiled trial per cell of the grid and renders the
// engine's per-phase step timing — the -profile-steps mode of cmd/sdrbench.
// Every `every`-th step is phase-timed (see obs.PhaseProfiler); each cell
// contributes one row per phase plus a closing step-wall row whose total the
// phase totals must (nearly) sum to — the coverage column makes the residual
// (loop glue and the timing calls themselves) visible. Sharded grids
// (sw.Shards > 1) additionally get a per-shard breakdown row for each
// parallel phase.
//
// Cells run strictly sequentially, never overlapped, so the timings are not
// distorted by sibling cells competing for cores. Unsatisfiable cells are
// skipped with a note. Wall-clock
// numbers are hardware-bound: the table records GOMAXPROCS for context and
// is excluded from byte-reproducibility expectations.
func RunProfile(sw scenario.Sweep, every int) (Table, error) {
	if err := sw.Validate(); err != nil {
		return Table{}, err
	}
	if every < 1 {
		every = 1
	}
	t := Table{
		ID: "PROFILE",
		Title: fmt.Sprintf("engine phase timing (every %s step sampled, base seed %d)",
			ordinal(every), sw.Seed),
		Columns: []string{"algorithm", "topology", "n", "daemon", "phase", "shard",
			"samples", "mean/step(µs)", "total(ms)", "share"},
	}
	for _, c := range sw.Cells() {
		run, err := sw.Trial(c, 0).Resolve()
		if err != nil {
			if errors.Is(err, scenario.ErrUnsatisfiable) {
				t.AddNote("%s/%s n=%d %s: skipped (unsatisfiable)", c.Algorithm, c.Topology, c.N, c.Daemon)
				continue
			}
			return Table{}, err
		}
		prof := obs.NewPhaseProfiler(every)
		run.Execute(sim.WithProfiler(prof))
		p := prof.Profile()
		if p.SampledSteps == 0 {
			t.AddNote("%s/%s n=%d %s: no steps sampled", c.Algorithm, c.Topology, c.N, c.Daemon)
			continue
		}
		cell := []string{c.Algorithm, c.Topology, itoa(c.N), c.Daemon}
		for _, ph := range p.Phases {
			t.AddRow(append(cell, ph.Phase, "-",
				itoa(ph.Count),
				usPerStep(ph.Total, p.SampledSteps),
				msTotal(ph.Total),
				share(ph.Total, p.StepWall))...)
		}
		for _, sb := range p.Shards {
			for _, ph := range sb.Phases {
				t.AddRow(append(cell, ph.Phase, itoa(sb.Shard),
					itoa(ph.Count),
					usPerStep(ph.Total, p.SampledSteps),
					msTotal(ph.Total),
					share(ph.Total, p.StepWall))...)
			}
		}
		t.AddRow(append(cell, "step_wall", "-",
			itoa(p.SampledSteps),
			usPerStep(p.StepWall, p.SampledSteps),
			msTotal(p.StepWall),
			fmt.Sprintf("cover %.0f%%", 100*p.Coverage()))...)
	}
	t.AddNote("share is each phase's fraction of the sampled step wall time; the step_wall row's cover%% is the fraction the named phases account for")
	t.AddNote("GOMAXPROCS=%d NumCPU=%d shards=%d; wall-clock numbers are hardware-bound", runtime.GOMAXPROCS(0), runtime.NumCPU(), maxInt(sw.Shards, 1))
	return t, nil
}

// usPerStep renders a phase total as mean microseconds per sampled step.
func usPerStep(d time.Duration, steps int) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/float64(steps)/1e3)
}

// msTotal renders a duration in milliseconds.
func msTotal(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds()*1e3)
}

// share renders a phase total as a percentage of the sampled step wall time.
func share(d, wall time.Duration) string {
	if wall <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(d)/float64(wall))
}

// ordinal renders 1 → "1st", 2 → "2nd", 4 → "4th" for the table title.
func ordinal(k int) string {
	switch {
	case k%100/10 == 1:
		return fmt.Sprintf("%dth", k)
	case k%10 == 1:
		return fmt.Sprintf("%dst", k)
	case k%10 == 2:
		return fmt.Sprintf("%dnd", k)
	case k%10 == 3:
		return fmt.Sprintf("%drd", k)
	default:
		return fmt.Sprintf("%dth", k)
	}
}
