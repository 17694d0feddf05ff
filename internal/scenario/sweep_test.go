package scenario

import (
	"errors"
	"math/rand"
	"testing"
)

func TestSweepCellsOrderAndCount(t *testing.T) {
	sw := Sweep{
		Algorithms: []string{"a1", "a2"},
		Topologies: []string{"t1", "t2", "t3"},
		Daemons:    []string{"d1"},
		Faults:     []string{"f1", "f2"},
		Sizes:      []int{4, 8},
	}
	cells := sw.Cells()
	if got, want := len(cells), 2*3*2*1*2; got != want {
		t.Fatalf("expanded %d cells, want %d", got, want)
	}
	// Nesting order: algorithm > topology > size > daemon > fault.
	if cells[0] != (Cell{"a1", "t1", 4, "d1", "f1", ""}) {
		t.Errorf("first cell %+v", cells[0])
	}
	if cells[1] != (Cell{"a1", "t1", 4, "d1", "f2", ""}) {
		t.Errorf("second cell %+v (fault must be innermost)", cells[1])
	}
	if cells[len(cells)-1] != (Cell{"a2", "t3", 8, "d1", "f2", ""}) {
		t.Errorf("last cell %+v", cells[len(cells)-1])
	}

	// Empty fault axis defaults to none.
	sw.Faults = nil
	if cells := sw.Cells(); cells[0].Fault != "none" {
		t.Errorf("empty fault axis expanded to %q, want none", cells[0].Fault)
	}
}

func TestSweepTrialSeeds(t *testing.T) {
	sw := Sweep{Seed: 100, MaxSteps: 42, Params: Params{K: 7}}
	c := Cell{Algorithm: "unison", Topology: "ring", N: 6, Daemon: "synchronous", Fault: "none"}
	sp0 := sw.Trial(c, 0)
	sp2 := sw.Trial(c, 2)
	if sp0.Seed != 100 || sp2.Seed != 100+2*TrialSeedStride {
		t.Errorf("trial seeds %d, %d", sp0.Seed, sp2.Seed)
	}
	if sp0.MaxSteps != 42 || sp0.Params.K != 7 || sp0.Algorithm != "unison" {
		t.Errorf("cell fields not threaded through: %+v", sp0)
	}
	sw.SeedStride = 5
	if got := sw.Trial(c, 3).Seed; got != 115 {
		t.Errorf("custom stride seed %d, want 115", got)
	}
}

func TestSweepValidate(t *testing.T) {
	good := Sweep{
		Algorithms: []string{"unison"},
		Topologies: []string{"ring"},
		Daemons:    []string{"synchronous"},
		Faults:     []string{"random-all"},
		Sizes:      []int{6},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	for _, bad := range []Sweep{
		{Topologies: []string{"ring"}, Daemons: []string{"synchronous"}, Sizes: []int{6}},
		{Algorithms: []string{"nope"}, Topologies: []string{"ring"}, Daemons: []string{"synchronous"}, Sizes: []int{6}},
		{Algorithms: []string{"unison"}, Topologies: []string{"nope"}, Daemons: []string{"synchronous"}, Sizes: []int{6}},
		{Algorithms: []string{"unison"}, Topologies: []string{"ring"}, Daemons: []string{"nope"}, Sizes: []int{6}},
		{Algorithms: []string{"unison"}, Topologies: []string{"ring"}, Daemons: []string{"synchronous"}, Faults: []string{"nope"}, Sizes: []int{6}},
		{Algorithms: []string{"unison"}, Topologies: []string{"ring"}, Daemons: []string{"synchronous"}, Sizes: []int{6, 2}},
		{Algorithms: []string{"unison"}, Topologies: []string{"grid"}, Daemons: []string{"synchronous"}, Sizes: []int{0}},
	} {
		err := bad.Validate()
		if err == nil {
			t.Errorf("invalid sweep %+v accepted", bad)
		}
		if len(bad.Algorithms) == 1 && bad.Algorithms[0] == "nope" && !errors.Is(err, ErrUnknown) {
			t.Errorf("unknown name error not wrapped: %v", err)
		}
	}
}

// TestTopologyMinimumSizes pins every family's size floor: the smallest
// size checkN accepts builds without panicking, and Resolve rejects the size
// below it with an error instead of letting the generator panic.
func TestTopologyMinimumSizes(t *testing.T) {
	for _, name := range Topologies() {
		topo, err := TopologyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		minN := max(topo.MinN, 1)
		if err := topo.checkN(minN); err != nil {
			t.Errorf("%s: checkN(%d) = %v", name, minN, err)
		}
		if g := topo.Build(minN, Params{}, rand.New(rand.NewSource(1))); g.N() < 1 {
			t.Errorf("%s: Build(%d) returned an empty graph", name, minN)
		}
		below := Spec{Algorithm: "unison", Topology: name, N: minN - 1, Daemon: "synchronous", Seed: 1}
		if _, err := below.Resolve(); err == nil {
			t.Errorf("%s: Resolve accepted n=%d", name, minN-1)
		}
	}
}
