package checker

import (
	"math/rand"
	"testing"

	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

// counterState and counterAlg form a tiny test algorithm: every process holds
// a counter; a process may increment while it is below the minimum of its
// neighbours plus one, up to a cap. From any configuration the algorithm
// converges to the all-cap configuration when the cap is reachable.
type counterState struct{ V int }

func (s counterState) Clone() sim.State { return s }
func (s counterState) Equal(o sim.State) bool {
	os, ok := o.(counterState)
	return ok && os == s
}
func (s counterState) String() string {
	digits := "0123456789"
	if s.V < 10 {
		return "v=" + string(digits[s.V])
	}
	return "v=" + string(digits[s.V/10]) + string(digits[s.V%10])
}

type counterAlg struct{ cap int }

func (a counterAlg) Name() string { return "counter" }
func (a counterAlg) InitialState(int, *sim.Network) sim.State {
	return counterState{V: 0}
}
func (a counterAlg) EnumerateStates(int, *sim.Network) []sim.State {
	out := make([]sim.State, 0, a.cap+1)
	for v := 0; v <= a.cap; v++ {
		out = append(out, counterState{V: v})
	}
	return out
}
func (a counterAlg) Rules() []sim.Rule {
	return []sim.Rule{{
		Name: "inc",
		Guard: func(v sim.View) bool {
			self := v.Self().(counterState).V
			if self >= a.cap {
				return false
			}
			return v.AllNeighbors(func(s sim.State) bool { return s.(counterState).V >= self })
		},
		Action: func(v sim.View) sim.State {
			return counterState{V: v.Self().(counterState).V + 1}
		},
	}}
}

var (
	_ sim.Algorithm  = counterAlg{}
	_ sim.Enumerable = counterAlg{}
)

// flipFlopAlg never converges: a single process toggles between two states.
type flipFlopAlg struct{}

func (flipFlopAlg) Name() string                             { return "flipflop" }
func (flipFlopAlg) InitialState(int, *sim.Network) sim.State { return counterState{V: 0} }
func (flipFlopAlg) EnumerateStates(int, *sim.Network) []sim.State {
	return []sim.State{counterState{V: 0}, counterState{V: 1}}
}
func (flipFlopAlg) Rules() []sim.Rule {
	return []sim.Rule{{
		Name:  "flip",
		Guard: func(sim.View) bool { return true },
		Action: func(v sim.View) sim.State {
			return counterState{V: 1 - v.Self().(counterState).V}
		},
	}}
}

var _ sim.Algorithm = flipFlopAlg{}

func allAtCap(capValue, n int) sim.Predicate {
	return func(c *sim.Configuration) bool {
		for u := 0; u < n; u++ {
			if c.State(u).(counterState).V != capValue {
				return false
			}
		}
		return true
	}
}

func TestCheckClosure(t *testing.T) {
	g := graph.Ring(4)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 3}

	// "All counters ≥ 0" is trivially closed.
	nonNegative := func(c *sim.Configuration) bool {
		for u := 0; u < c.N(); u++ {
			if c.State(u).(counterState).V < 0 {
				return false
			}
		}
		return true
	}
	start := sim.InitialConfiguration(alg, net)
	if err := CheckClosure(net, alg, sim.SynchronousDaemon{}, start, nonNegative, 1000); err != nil {
		t.Errorf("a trivially closed predicate was reported as violated: %v", err)
	}

	// "All counters = 0" is violated by the first step.
	allZero := allAtCap(0, g.N())
	if err := CheckClosure(net, alg, sim.SynchronousDaemon{}, start, allZero, 1000); err == nil {
		t.Error("a non-closed predicate must be reported")
	}

	// Starting outside the predicate is itself an error.
	if err := CheckClosure(net, alg, sim.SynchronousDaemon{}, start, allAtCap(3, g.N()), 1000); err == nil {
		t.Error("a start outside the predicate must be rejected")
	}
}

func TestCheckInvariant(t *testing.T) {
	g := graph.Path(3)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 2}
	start := sim.InitialConfiguration(alg, net)

	within := func(c *sim.Configuration) bool {
		for u := 0; u < c.N(); u++ {
			if v := c.State(u).(counterState).V; v < 0 || v > 2 {
				return false
			}
		}
		return true
	}
	if err := CheckInvariant(net, alg, sim.SynchronousDaemon{}, start, within, 1000); err != nil {
		t.Errorf("the cap invariant holds: %v", err)
	}
	below2 := func(c *sim.Configuration) bool {
		for u := 0; u < c.N(); u++ {
			if c.State(u).(counterState).V >= 2 {
				return false
			}
		}
		return true
	}
	if err := CheckInvariant(net, alg, sim.SynchronousDaemon{}, start, below2, 1000); err == nil {
		t.Error("an invariant that eventually breaks must be reported")
	}
	if err := CheckInvariant(net, alg, sim.SynchronousDaemon{}, start, allAtCap(2, g.N()), 1000); err == nil {
		t.Error("an invariant violated at the start must be reported")
	}
}

func TestConvergenceSample(t *testing.T) {
	g := graph.Ring(4)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 3}
	factory := sim.DaemonFactory{
		Name: "distributed-random",
		New: func(seed int64) sim.Daemon {
			return sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(seed)), 0.5)
		},
	}
	buildStart := func(rng *rand.Rand) *sim.Configuration {
		states := make([]sim.State, g.N())
		for u := range states {
			states[u] = counterState{V: rng.Intn(3)}
		}
		return sim.NewConfiguration(states)
	}
	if err := ConvergenceSample(net, alg, factory, buildStart, allAtCap(3, g.N()), 5, 10_000, 1); err != nil {
		t.Errorf("the counter algorithm converges to the all-cap configuration: %v", err)
	}
	// An unreachable target must be reported.
	if err := ConvergenceSample(net, alg, factory, buildStart, allAtCap(9, g.N()), 2, 1_000, 1); err == nil {
		t.Error("an unreachable legitimate set must be reported")
	}
}

func TestExploreConvergence(t *testing.T) {
	g := graph.Path(2)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 2}

	var starts []*sim.Configuration
	for a := 0; a <= 2; a++ {
		for b := 0; b <= 2; b++ {
			starts = append(starts, sim.NewConfiguration([]sim.State{counterState{V: a}, counterState{V: b}}))
		}
	}
	report, err := Explore(net, alg, starts, ExploreOptions{
		Legitimate: allAtCap(2, g.N()),
		Invariant: func(c *sim.Configuration) bool {
			return c.State(0).(counterState).V <= 2 && c.State(1).(counterState).V <= 2
		},
		TerminalOK: allAtCap(2, g.N()),
	})
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	if !report.Complete {
		t.Error("the tiny state space must be explored completely")
	}
	if report.Configurations != 9 {
		t.Errorf("explored %d configurations, want 9", report.Configurations)
	}
	if report.TerminalConfigurations != 1 {
		t.Errorf("found %d terminal configurations, want exactly the all-cap one", report.TerminalConfigurations)
	}
	if report.LegitimateConfigurations != 1 {
		t.Errorf("found %d legitimate configurations, want 1", report.LegitimateConfigurations)
	}
}

func TestExploreDetectsIllegitimateCycle(t *testing.T) {
	g := graph.Path(2)
	net := sim.NewNetwork(g)
	alg := flipFlopAlg{}
	starts := []*sim.Configuration{sim.NewConfiguration([]sim.State{counterState{V: 0}, counterState{V: 0}})}
	_, err := Explore(net, alg, starts, ExploreOptions{
		Legitimate: func(*sim.Configuration) bool { return false },
	})
	if err == nil {
		t.Error("a diverging algorithm must be reported as an illegitimate cycle")
	}
}

func TestExploreDetectsIllegitimateTerminal(t *testing.T) {
	g := graph.Path(2)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 1}
	starts := []*sim.Configuration{sim.InitialConfiguration(alg, net)}
	_, err := Explore(net, alg, starts, ExploreOptions{
		// The only terminal configuration (all at cap) is declared
		// illegitimate, which Explore must flag.
		Legitimate: func(*sim.Configuration) bool { return false },
	})
	if err == nil {
		t.Error("an illegitimate terminal configuration must be reported")
	}
}

func TestExploreInvariantViolation(t *testing.T) {
	g := graph.Path(2)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 2}
	starts := []*sim.Configuration{sim.InitialConfiguration(alg, net)}
	_, err := Explore(net, alg, starts, ExploreOptions{
		Invariant: func(c *sim.Configuration) bool {
			return c.State(0).(counterState).V == 0
		},
	})
	if err == nil {
		t.Error("a reachable invariant violation must be reported")
	}
}

func TestExploreSelectionCapAndConfigCap(t *testing.T) {
	g := graph.Ring(4)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 4}
	starts := []*sim.Configuration{sim.InitialConfiguration(alg, net)}

	// A selection-size cap still explores (it restricts daemon choices).
	report, err := Explore(net, alg, starts, ExploreOptions{MaxSelectionSize: 1})
	if err != nil {
		t.Fatalf("capped exploration failed: %v", err)
	}
	if report.Configurations == 0 || report.Transitions == 0 {
		t.Error("capped exploration should still visit configurations")
	}

	// A tiny configuration cap marks the exploration incomplete and is never
	// overshot: the explored set stays within the cap even though a frontier
	// of successors was pending.
	report2, err := Explore(net, alg, starts, ExploreOptions{MaxConfigurations: 2})
	if err != nil {
		t.Fatalf("bounded exploration failed: %v", err)
	}
	if report2.Complete {
		t.Error("hitting the configuration cap must mark the exploration incomplete")
	}
	if report2.Configurations > 2 {
		t.Errorf("explored %d configurations, cap was 2", report2.Configurations)
	}
}

// TestExploreSequentialParallelIdentical asserts the level-parallel
// exploration produces reports (and error outcomes) bit-identical to the
// sequential one, on a convergent space, a diverging space, and a truncated
// space.
func TestExploreSequentialParallelIdentical(t *testing.T) {
	g := graph.Ring(5)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 3}
	var starts []*sim.Configuration
	for a := 0; a <= 2; a++ {
		states := make([]sim.State, g.N())
		for u := range states {
			states[u] = counterState{V: (a + u) % 3}
		}
		starts = append(starts, sim.NewConfiguration(states))
	}
	cases := []struct {
		name string
		opts ExploreOptions
	}{
		{"exact", ExploreOptions{Legitimate: allAtCap(3, g.N())}},
		{"capped-selections", ExploreOptions{Legitimate: allAtCap(3, g.N()), MaxSelectionSize: 2}},
		{"truncated", ExploreOptions{MaxConfigurations: 40}},
	}
	for _, tc := range cases {
		seq := tc.opts
		seq.Workers = 1
		par := tc.opts
		par.Workers = 8
		seqReport, seqErr := Explore(net, alg, starts, seq)
		parReport, parErr := Explore(net, alg, starts, par)
		if seqReport != parReport {
			t.Errorf("%s: parallel report %+v != sequential %+v", tc.name, parReport, seqReport)
		}
		if (seqErr == nil) != (parErr == nil) || (seqErr != nil && seqErr.Error() != parErr.Error()) {
			t.Errorf("%s: parallel error %v != sequential %v", tc.name, parErr, seqErr)
		}
	}

	// A diverging algorithm must yield the same error either way.
	flip := flipFlopAlg{}
	fstarts := []*sim.Configuration{sim.NewConfiguration([]sim.State{counterState{V: 0}, counterState{V: 0}})}
	fnet := sim.NewNetwork(graph.Path(2))
	never := func(*sim.Configuration) bool { return false }
	_, seqErr := Explore(fnet, flip, fstarts, ExploreOptions{Legitimate: never, Workers: 1})
	_, parErr := Explore(fnet, flip, fstarts, ExploreOptions{Legitimate: never, Workers: 4})
	if seqErr == nil || parErr == nil || seqErr.Error() != parErr.Error() {
		t.Errorf("divergence errors differ: sequential %v, parallel %v", seqErr, parErr)
	}
}

// TestExploreGuardCacheMatchesDirect pins the per-worker guard cache: the
// cached exploration's reports and errors equal the direct-evaluation
// exploration's, at one worker and at many, for an algorithm that reads
// identifiers (counterAlg, which declares nothing) and an anonymous one
// (U∘SDR, whose keys omit identifiers).
func TestExploreGuardCacheMatchesDirect(t *testing.T) {
	ring := graph.Ring(5)
	net := sim.NewNetwork(ring)
	counterStarts := []*sim.Configuration{}
	for a := 0; a <= 2; a++ {
		states := make([]sim.State, ring.N())
		for u := range states {
			states[u] = counterState{V: (a + u) % 3}
		}
		counterStarts = append(counterStarts, sim.NewConfiguration(states))
	}

	u := unison.New(unison.DefaultPeriod(4))
	comp := core.Compose(u)
	unet := sim.NewNetwork(graph.Ring(4))
	rng := rand.New(rand.NewSource(1))
	var unisonStarts []*sim.Configuration
	for i := 0; i < 4; i++ {
		unisonStarts = append(unisonStarts, faults.MustRandomConfiguration(comp, unet, rng))
	}

	// The two spine nodes of this caterpillar have neighbourhoods too wide
	// to pack into one word with identifiers folded in, so they exercise the
	// spill keys; configurations that differ only on the other spine node's
	// side repeat a spine node's key, so spill entries are also hit.
	spine := graph.Caterpillar(2, 7)
	spineNet := sim.NewNetwork(spine)
	zeros := make([]sim.State, spine.N())
	for u := range zeros {
		zeros[u] = counterState{}
	}
	spineStarts := []*sim.Configuration{sim.NewConfiguration(zeros)}

	cases := []struct {
		name   string
		net    *sim.Network
		alg    sim.Algorithm
		starts []*sim.Configuration
		opts   ExploreOptions
	}{
		{"counter-exact", net, counterAlg{cap: 3}, counterStarts, ExploreOptions{Legitimate: allAtCap(3, ring.N())}},
		{"counter-truncated", net, counterAlg{cap: 3}, counterStarts, ExploreOptions{MaxConfigurations: 40}},
		{"counter-caterpillar-spill", spineNet, counterAlg{cap: 1}, spineStarts, ExploreOptions{MaxSelectionSize: 1, MaxConfigurations: 400}},
		{"unison-sdr-ring-4", unet, comp, unisonStarts, ExploreOptions{Legitimate: core.NormalPredicate(u, unet), MaxSelectionSize: 1}},
	}
	for _, tc := range cases {
		direct := tc.opts
		direct.Workers = 1
		want, wantErr := explore(tc.net, tc.alg, tc.starts, direct, false)
		if want.Configurations < 10 {
			t.Fatalf("%s: exploration too small to pin anything: %+v", tc.name, want)
		}
		for _, workers := range []int{1, 4} {
			o := tc.opts
			o.Workers = workers
			got, err := Explore(tc.net, tc.alg, tc.starts, o)
			if got != want {
				t.Errorf("%s workers=%d: cached report %+v != direct %+v", tc.name, workers, got, want)
			}
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Errorf("%s workers=%d: cached error %v != direct %v", tc.name, workers, err, wantErr)
			}
		}
	}
}

func TestPackKey(t *testing.T) {
	if key, ok := packKey([]uint64{5}); !ok || key != 5 {
		t.Fatalf("single component: key=%d ok=%v, want 5 true", key, ok)
	}
	// A single component uses the full 64 bits.
	if key, ok := packKey([]uint64{1 << 63}); !ok || key != 1<<63 {
		t.Fatalf("wide single component: key=%d ok=%v, want 1<<63 true", key, ok)
	}
	if key, ok := packKey([]uint64{1, 2}); !ok || key != 1<<32|2 {
		t.Fatalf("two components: key=%#x ok=%v, want 1<<32|2 true", key, ok)
	}
	// A component exceeding its field spills.
	if _, ok := packKey([]uint64{1 << 32, 0}); ok {
		t.Fatal("oversized component packed")
	}
	// More than 64 components leave zero bits per component.
	if _, ok := packKey(make([]uint64, 65)); ok {
		t.Fatal("65 components packed")
	}
	// Distinct component sequences of the same length pack to distinct keys.
	a, _ := packKey([]uint64{1, 2, 3})
	b, _ := packKey([]uint64{3, 2, 1})
	if a == b {
		t.Fatal("order-sensitive components collided")
	}
}

// collectSelections materialises forEachSelection's output for assertions.
func collectSelections(enabled []int, maxSize int) [][]int {
	var out [][]int
	forEachSelection(enabled, maxSize, nil, func(sel []int) {
		out = append(out, append([]int(nil), sel...))
	})
	return out
}

func TestForEachSelection(t *testing.T) {
	sels := collectSelections([]int{1, 2, 3}, 0)
	if len(sels) != 7 {
		t.Errorf("3 enabled processes have 7 non-empty subsets, got %d", len(sels))
	}
	capped := collectSelections([]int{1, 2, 3}, 1)
	if len(capped) != 3 {
		t.Errorf("size-1 selections of 3 processes: want 3, got %d", len(capped))
	}
	// Canonical order: by size, then lexicographic by positions.
	want := [][]int{{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}}
	got := collectSelections([]int{1, 2, 3}, 2)
	if len(got) != len(want) {
		t.Fatalf("selections = %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("selections = %v, want %v", got, want)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("selections = %v, want %v", got, want)
			}
		}
	}
}

// TestForEachSelectionNoExponentialWork pins the tentpole property: a capped
// enumeration over a large enabled set emits exactly the capped subsets
// without iterating the 2^n masks (with 60 enabled processes the old
// mask-filter loop would spin through 2^60 iterations and never return).
func TestForEachSelectionNoExponentialWork(t *testing.T) {
	enabled := make([]int, 60)
	for i := range enabled {
		enabled[i] = i
	}
	count := 0
	forEachSelection(enabled, 2, nil, func(sel []int) { count++ })
	if want := 60 + 60*59/2; count != want {
		t.Errorf("capped enumeration emitted %d selections, want %d", count, want)
	}
}
