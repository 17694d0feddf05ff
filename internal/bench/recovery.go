package bench

import (
	"errors"
	"fmt"

	"sdr/internal/scenario"
	"sdr/internal/stats"
)

// RunRecovery runs a churn sweep — algorithm × topology × size × daemon ×
// fault × churn schedule — and renders one RECOVERY row per cell with the
// per-event re-stabilization costs: how many events fired, how many the
// system recovered from, the p50/p95 recovery rounds and mean recovery moves
// pooled over every recovered event of every trial, and the mean availability
// (fraction of steps spent in a legitimate configuration). It is the
// -churn mode of cmd/sdrbench.
//
// Per-trial seeding makes the table bit-identical at every parallelism
// level: each trial resolves its own scenario (and hence its own single-use
// churn injector) from a seed derived only from the sweep's base seed and the
// trial index. Only cfg's Parallel knob is read; the grid itself comes from
// sw.
func RunRecovery(sw scenario.Sweep, cfg Config) (Table, error) {
	if len(sw.Churns) == 0 {
		return Table{}, fmt.Errorf("bench: recovery sweep needs at least one churn schedule (see scenario.ChurnSchedules)")
	}
	for _, c := range sw.Churns {
		if c == "" {
			return Table{}, fmt.Errorf("bench: recovery sweep churn schedules must be non-empty")
		}
	}
	if err := sw.Validate(); err != nil {
		return Table{}, err
	}
	trials := sw.Trials
	if trials <= 0 {
		trials = 1
		sw.Trials = 1
	}
	t := Table{
		ID:    "RECOVERY",
		Title: fmt.Sprintf("mid-run churn: per-event re-stabilization costs (%d trials per cell, base seed %d)", trials, sw.Seed),
		Columns: []string{"algorithm", "topology", "n", "daemon", "fault", "churn",
			"events", "recovered", "rec-rounds(p50)", "rec-rounds(p95)", "rec-moves(mean)", "avail(mean)", "ok"},
	}
	cells := sw.Cells()
	type trial struct {
		events, recovered int
		recRounds         []float64
		recMoves          []int
		availability      float64
		legitimate, ok    bool
		skipped           bool
		err               error
	}
	results := MapGrid(cfg.Parallel, len(cells), trials, func(ci, tr int) trial {
		run, err := sw.Trial(cells[ci], tr).Resolve()
		if err != nil {
			return trial{skipped: errors.Is(err, scenario.ErrUnsatisfiable), err: err}
		}
		res := run.Execute()
		out := trial{
			events:       len(res.Events),
			availability: res.Availability(),
			legitimate:   res.LegitimateReached,
			ok:           run.Report(res).OK,
		}
		for _, ev := range res.Events {
			if ev.Recovered {
				out.recovered++
				out.recRounds = append(out.recRounds, float64(ev.RecoveryRounds))
				out.recMoves = append(out.recMoves, ev.RecoveryMoves)
			}
		}
		return out
	})
	for ci, c := range cells {
		var recRounds []float64
		var recMoves []int
		var avail []float64
		events, recovered, skipped := 0, 0, 0
		ran, ok := 0, true
		for _, tr := range results[ci] {
			if tr.err != nil {
				if !tr.skipped {
					return Table{}, tr.err
				}
				skipped++
				continue
			}
			ran++
			events += tr.events
			recovered += tr.recovered
			recRounds = append(recRounds, tr.recRounds...)
			recMoves = append(recMoves, tr.recMoves...)
			avail = append(avail, tr.availability)
			ok = ok && tr.ok
		}
		if ran == 0 {
			t.AddRow(c.Algorithm, c.Topology, itoa(c.N), c.Daemon, c.Fault, c.Churn,
				"skipped", "-", "-", "-", "-", "-", boolCell(true))
			continue
		}
		if skipped > 0 {
			t.AddNote("%s/%s n=%d: %d of %d trials skipped as unsatisfiable", c.Algorithm, c.Topology, c.N, skipped, trials)
		}
		// A cell is in violation when an event was never recovered from
		// within the step budget, or the final output failed its check.
		ok = ok && recovered == events
		if !ok {
			t.Violations++
		}
		p50, p95 := "-", "-"
		movesMean := "-"
		if len(recRounds) > 0 {
			p50 = ftoa(stats.Percentile(recRounds, 50))
			p95 = ftoa(stats.Percentile(recRounds, 95))
			movesMean = ftoa(stats.SummarizeInts(recMoves).Mean)
		}
		t.AddRow(c.Algorithm, c.Topology, itoa(c.N), c.Daemon, c.Fault, c.Churn,
			itoa(events), itoa(recovered), p50, p95, movesMean,
			fmt.Sprintf("%.3f", stats.Summarize(avail).Mean), boolCell(ok))
	}
	return t, nil
}
