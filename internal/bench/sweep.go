package bench

import (
	"errors"
	"fmt"

	"sdr/internal/scenario"
	"sdr/internal/stats"
)

// RunSweep runs an arbitrary algorithm × topology × size × daemon × fault
// grid through the scenario pipeline and renders one row per cell — the
// -sweep mode of cmd/sdrbench and the CI smoke grid. Cells whose algorithm
// cannot run on the resolved topology (scenario.ErrUnsatisfiable) are
// reported as skipped; any other resolution error fails the sweep. A row
// whose runs do not reach their goal (termination or stabilization, plus the
// algorithm's own output check) counts as a violation. Only cfg's Parallel
// knob is read; the grid itself comes from sw.
func RunSweep(sw scenario.Sweep, cfg Config) (Table, error) {
	if err := sw.Validate(); err != nil {
		return Table{}, err
	}
	trials := sw.Trials
	if trials <= 0 {
		trials = 1
		sw.Trials = 1
	}
	t := Table{
		ID:      "SWEEP",
		Title:   fmt.Sprintf("custom scenario sweep (%d trials per cell, base seed %d)", trials, sw.Seed),
		Columns: []string{"algorithm", "topology", "n", "daemon", "fault", "moves(mean)", "rounds(max)", "ok"},
	}
	cells := sw.Cells()
	type trial struct {
		moves, rounds int
		ok, skipped   bool
		err           error
	}
	results := MapGrid(cfg.Parallel, len(cells), trials, func(ci, tr int) trial {
		run, err := sw.Trial(cells[ci], tr).Resolve()
		if err != nil {
			return trial{skipped: errors.Is(err, scenario.ErrUnsatisfiable), err: err}
		}
		res := run.Execute()
		return trial{moves: res.Moves, rounds: res.Rounds, ok: run.Report(res).OK}
	})
	for ci, c := range cells {
		var moves []int
		maxRounds, skipped := 0, 0
		ok := true
		for _, tr := range results[ci] {
			if tr.err != nil {
				if !tr.skipped {
					return Table{}, tr.err
				}
				skipped++
				continue
			}
			moves = append(moves, tr.moves)
			maxRounds = maxInt(maxRounds, tr.rounds)
			ok = ok && tr.ok
		}
		if len(moves) == 0 {
			// Every trial was unsatisfiable on its resolved topology.
			t.AddRow(c.Algorithm, c.Topology, itoa(c.N), c.Daemon, c.Fault, "skipped", "-", boolCell(true))
			continue
		}
		// Trials that did run are judged normally even when sibling trials
		// were skipped (random topologies can be unsatisfiable per seed);
		// a partially skipped cell must not mask a real violation.
		if skipped > 0 {
			t.AddNote("%s/%s n=%d: %d of %d trials skipped as unsatisfiable", c.Algorithm, c.Topology, c.N, skipped, trials)
		}
		if !ok {
			t.Violations++
		}
		t.AddRow(c.Algorithm, c.Topology, itoa(c.N), c.Daemon, c.Fault,
			ftoa(stats.SummarizeInts(moves).Mean), itoa(maxRounds), boolCell(ok))
	}
	return t, nil
}
