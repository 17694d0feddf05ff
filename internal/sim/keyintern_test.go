package sim_test

import (
	"testing"

	"sdr/internal/alliance"
	"sdr/internal/core"
	"sdr/internal/sim"
	"sdr/internal/spantree"
	"sdr/internal/unison"
)

// TestAppendStateKeyMatchesString pins the KeyAppender contract for every
// state type with a rendering bypass: the appended bytes must equal the
// String() rendering exactly, because the interner's id table is keyed by the
// rendering.
func TestAppendStateKeyMatchesString(t *testing.T) {
	states := []sim.State{
		unison.ClockState{C: 0},
		unison.ClockState{C: 17},
		unison.BPVState{R: 0},
		unison.BPVState{R: -5},
		unison.BPVState{R: 12},
		alliance.FGAState{Col: false, Scr: -1, CanQ: false, Ptr: alliance.NoPointer},
		alliance.FGAState{Col: true, Scr: 0, CanQ: true, Ptr: 7},
		alliance.FGAState{Col: true, Scr: 1, CanQ: false, Ptr: 0},
		alliance.ResetFGAState(),
		spantree.NodeState{Dist: 0, Parent: spantree.NoParent},
		spantree.NodeState{Dist: 3, Parent: 5},
		core.ComposedState{SDR: core.CleanSDRState(), Inner: unison.ClockState{C: 4}},
		core.ComposedState{
			SDR:   core.SDRState{St: core.StatusRB, D: 2},
			Inner: alliance.FGAState{Col: true, Scr: -1, CanQ: true, Ptr: alliance.NoPointer},
		},
		core.ComposedState{
			SDR:   core.SDRState{St: core.StatusRF, D: 0},
			Inner: spantree.NodeState{Dist: 9, Parent: spantree.NoParent},
		},
	}
	for _, s := range states {
		if _, ok := s.(sim.KeyAppender); !ok {
			t.Errorf("%T does not implement sim.KeyAppender", s)
			continue
		}
		if got, want := string(sim.AppendStateKey(nil, s)), s.String(); got != want {
			t.Errorf("%T: AppendStateKey %q != String %q", s, got, want)
		}
	}
	// The generic fallback renders through String().
	fallback := fallbackState{}
	if got := string(sim.AppendStateKey(nil, fallback)); got != fallback.String() {
		t.Errorf("fallback: %q != %q", got, fallback.String())
	}
}

// fallbackState has no KeyAppender bypass.
type fallbackState struct{}

func (fallbackState) Clone() sim.State       { return fallbackState{} }
func (fallbackState) Equal(o sim.State) bool { _, ok := o.(fallbackState); return ok }
func (fallbackState) String() string         { return "fallback" }
