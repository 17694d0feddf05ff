package bench

import (
	"strconv"
	"strings"
	"testing"

	"sdr/internal/scenario"
)

// profileSweep is a one-cell grid sized so a sequential profiled run samples
// a meaningful number of steps.
func profileSweep(shards int) scenario.Sweep {
	return scenario.Sweep{
		Algorithms: []string{"unison"},
		Topologies: []string{"torus"},
		Daemons:    []string{"synchronous"},
		Faults:     []string{"random-all"},
		Sizes:      []int{256},
		Trials:     1,
		Seed:       5,
		MaxSteps:   200_000,
		Shards:     shards,
	}
}

// phaseRows indexes a PROFILE table's rows by (phase, shard) for one cell.
func phaseRows(t *testing.T, table Table) map[[2]string][]string {
	t.Helper()
	rows := make(map[[2]string][]string)
	for _, r := range table.Rows {
		if len(r) != len(table.Columns) {
			t.Fatalf("ragged row %v", r)
		}
		rows[[2]string{r[4], r[5]}] = r
	}
	return rows
}

// cellFloat parses one numeric cell of a PROFILE row.
func cellFloat(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("row %v col %d: %v", row, col, err)
	}
	return v
}

func TestRunProfileSequentialSumsToStepWall(t *testing.T) {
	table, err := RunProfile(profileSweep(0), 1)
	if err != nil {
		t.Fatalf("RunProfile: %v", err)
	}
	rows := phaseRows(t, table)
	wall, ok := rows[[2]string{"step_wall", "-"}]
	if !ok {
		t.Fatalf("no step_wall row:\n%v", table.Rows)
	}
	var phaseTotal float64
	for key, r := range rows {
		if key[0] == "step_wall" || key[1] != "-" {
			continue
		}
		phaseTotal += cellFloat(t, r, 8)
	}
	// The named phases bracket every piece of real per-step work; what they
	// miss is loop glue and the clock reads themselves. Requiring ≥ 80% of
	// the step wall (and never more than 100% + rounding) pins that the table
	// is internally consistent without being flaky on timer noise.
	wallTotal := cellFloat(t, wall, 8)
	if phaseTotal < 0.8*wallTotal || phaseTotal > 1.01*wallTotal+0.05 {
		t.Errorf("phase totals %.2fms inconsistent with step wall %.2fms:\n%v", phaseTotal, wallTotal, table.Rows)
	}
	for _, phase := range []string{"select", "execute", "guard_eval", "account"} {
		if _, ok := rows[[2]string{phase, "-"}]; !ok {
			t.Errorf("sequential profile missing phase %q", phase)
		}
	}
}

func TestRunProfileShardedBreakdown(t *testing.T) {
	table, err := RunProfile(profileSweep(4), 1)
	if err != nil {
		t.Fatalf("RunProfile: %v", err)
	}
	rows := phaseRows(t, table)
	for _, phase := range []string{"select", "execute", "merge", "boundary_exchange", "account"} {
		if _, ok := rows[[2]string{phase, "-"}]; !ok {
			t.Errorf("sharded profile missing global phase %q", phase)
		}
	}
	// n=256 on a torus is 4 shard words, so all 4 requested shards are real:
	// each must contribute an execute breakdown row.
	for shard := 0; shard < 4; shard++ {
		if _, ok := rows[[2]string{"execute", strconv.Itoa(shard)}]; !ok {
			t.Errorf("no execute breakdown row for shard %d:\n%v", shard, table.Rows)
		}
	}
}

func TestRunProfileSkipsUnsatisfiable(t *testing.T) {
	sw := scenario.Sweep{
		Algorithms: []string{"2-tuple-domination"},
		Topologies: []string{"path"},
		Daemons:    []string{"synchronous"},
		Sizes:      []int{6},
		Trials:     1,
		Seed:       1,
		MaxSteps:   10_000,
	}
	table, err := RunProfile(sw, 1)
	if err != nil {
		t.Fatalf("RunProfile: %v", err)
	}
	if len(table.Rows) != 0 {
		t.Fatalf("unsatisfiable cell produced rows: %v", table.Rows)
	}
	found := false
	for _, n := range table.Notes {
		if strings.Contains(n, "unsatisfiable") {
			found = true
		}
	}
	if !found {
		t.Errorf("skip note missing: %v", table.Notes)
	}
}
