package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"sdr/internal/obs"
)

// DefaultMaxSteps bounds a run when the caller does not override it; it
// protects against non-terminating executions of non-silent algorithms.
const DefaultMaxSteps = 2_000_000

// RuleChoicePolicy decides which enabled rule an activated process executes
// when several of its rules are enabled (the model leaves this
// nondeterministic).
type RuleChoicePolicy int

// Rule choice policies.
const (
	// FirstEnabledRule executes the first enabled rule in declaration order.
	FirstEnabledRule RuleChoicePolicy = iota + 1
	// RandomEnabledRule executes a uniformly random enabled rule.
	RandomEnabledRule
)

// StepInfo describes one executed step, for hooks and traces.
type StepInfo struct {
	// Step is the 0-based index of the step.
	Step int
	// Activated lists the processes that moved, in ascending order.
	Activated []int
	// Rules gives, for each activated process (same order), the name of the
	// rule it executed.
	Rules []string
	// Before and After are the configurations around the step. Like Activated
	// and Rules they are the engine's reusable working buffers: hooks must
	// not retain or modify them beyond the callback (clone if needed).
	Before, After *Configuration
	// Round is the index (0-based) of the round this step belongs to.
	Round int
}

// StepHook observes executed steps.
type StepHook func(StepInfo)

// Options configures a run. Use the With* functions to set them. The
// combination is checked once per run by validate; RunE surfaces violations
// as errors, Run panics on them.
type Options struct {
	maxSteps           int
	legitimate         Predicate
	hooks              []StepHook
	ruleChoice         RuleChoicePolicy
	rng                *rand.Rand
	stopWhenLegitimate bool
	injector           Injector
	shards             int
	profiler           *obs.PhaseProfiler
}

// Option customises a run.
type Option func(*Options)

// validate checks the option combination. It is the single place run
// preconditions are enforced, so every constraint reads as one line here
// instead of being scattered across option constructors as panics.
func (o *Options) validate() error {
	if o.maxSteps < 0 {
		return fmt.Errorf("sim: WithMaxSteps(%d): the step bound must be non-negative", o.maxSteps)
	}
	switch o.ruleChoice {
	case FirstEnabledRule, RandomEnabledRule:
	default:
		return fmt.Errorf("sim: WithRuleChoice(%d): unknown rule-choice policy", o.ruleChoice)
	}
	if o.ruleChoice == RandomEnabledRule && o.rng == nil {
		return fmt.Errorf("sim: WithRuleChoice(RandomEnabledRule, nil): the random policy requires a non-nil rng")
	}
	if o.shards < 0 {
		return fmt.Errorf("sim: WithShards(%d): the shard count must be non-negative", o.shards)
	}
	if o.shards > 1 && o.ruleChoice == RandomEnabledRule {
		return fmt.Errorf("sim: WithShards(%d) is incompatible with RandomEnabledRule: shards execute rules concurrently, so draws from the shared rng would consume it in a nondeterministic order", o.shards)
	}
	return nil
}

// WithMaxSteps bounds the number of steps of the run.
func WithMaxSteps(maxSteps int) Option {
	return func(o *Options) { o.maxSteps = maxSteps }
}

// WithLegitimate sets the legitimacy predicate used to measure stabilization
// time: the run records when the predicate first holds (and keeps running
// until termination or the step bound, since legitimate configurations need
// not be terminal).
func WithLegitimate(p Predicate) Option {
	return func(o *Options) { o.legitimate = p }
}

// WithStepHook registers a hook invoked after every step.
func WithStepHook(h StepHook) Option {
	return func(o *Options) { o.hooks = append(o.hooks, h) }
}

// WithRuleChoice sets the rule-choice policy (default FirstEnabledRule). The
// RandomEnabledRule policy requires a non-nil rng: a nil rng would silently
// degrade the policy to deterministic first-rule choice, losing the
// nondeterminism the caller asked for. The violation is reported when the
// run starts (an error from RunE, a panic from Run), not here, so that
// option values can be assembled and inspected freely.
func WithRuleChoice(p RuleChoicePolicy, rng *rand.Rand) Option {
	return func(o *Options) {
		o.ruleChoice = p
		o.rng = rng
	}
}

// WithStopWhenLegitimate makes the run stop as soon as the legitimacy
// predicate holds (useful for non-silent algorithms such as unison, whose
// executions never terminate).
func WithStopWhenLegitimate() Option {
	return func(o *Options) { o.stopWhenLegitimate = true }
}

// WithProfiler attaches a phase profiler to the run: on the profiler's
// sampled steps (see obs.NewPhaseProfiler) the engine records wall time per
// step phase — daemon select, rule execution, guard re-evaluation and
// accounting sequentially; select, per-shard execute, merge, per-shard
// boundary exchange and accounting when sharded. Timing never feeds back
// into the execution, so profiled runs stay bit-identical to unprofiled
// ones, and without a profiler (the default) the loop pays one nil check
// per step and allocates nothing. The profiler belongs to a single run; read
// it with Profile after the run returns.
func WithProfiler(p *obs.PhaseProfiler) Option {
	return func(o *Options) { o.profiler = p }
}

func defaultOptions() Options {
	return Options{
		maxSteps:   DefaultMaxSteps,
		ruleChoice: FirstEnabledRule,
	}
}

// Result summarises an execution.
type Result struct {
	// Steps is the number of executed steps.
	Steps int
	// Moves is the total number of rule executions.
	Moves int
	// MovesPerProcess gives the number of moves of each process.
	MovesPerProcess []int
	// MovesPerRule gives the number of executions of each rule, by name.
	MovesPerRule map[string]int
	// Rounds is the number of rounds elapsed (rounded up if the execution
	// stopped mid-round with progress made in that round).
	Rounds int
	// Terminated reports whether the run reached a terminal configuration.
	Terminated bool
	// HitStepLimit reports whether the run stopped because of the step bound.
	HitStepLimit bool
	// Final is the last configuration of the run.
	Final *Configuration
	// LegitimateReached reports whether the legitimacy predicate ever held
	// (always false when no predicate was supplied).
	LegitimateReached bool
	// StabilizationMoves, StabilizationRounds and StabilizationSteps are the
	// costs incurred strictly before the first legitimate configuration
	// (0 if the initial configuration is already legitimate, -1 when the
	// predicate never held or was not supplied). StabilizationRounds follows
	// the same conservative-upper-estimate convention as Rounds: a round
	// still in progress when legitimacy is first reached counts as one full
	// round.
	StabilizationMoves  int
	StabilizationRounds int
	StabilizationSteps  int
	// MaxMovesPerProcess is the maximum entry of MovesPerProcess.
	MaxMovesPerProcess int
	// StabilizationMovesPerProcessMax is the maximum number of moves any
	// single process executed before the first legitimate configuration
	// (-1 when the predicate never held).
	StabilizationMovesPerProcessMax int
	// Events holds the per-event recovery records of an injected run (see
	// WithInjector), in the order the events fired. Empty for uninjected
	// runs.
	Events []EventRecovery
	// LegitimateSteps counts the executed steps whose resulting
	// configuration satisfied the legitimacy predicate. It is only
	// maintained for injected runs with a predicate (static runs keep the
	// predicate evaluation out of the hot loop once the first legitimate
	// configuration is recorded).
	LegitimateSteps int
}

// Availability returns the fraction of executed steps whose resulting
// configuration was legitimate (0 when no step executed). It is only
// meaningful for injected runs — see LegitimateSteps.
func (r *Result) Availability() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.LegitimateSteps) / float64(r.Steps)
}

// newResult returns a Result with the accounting fields initialised for n
// processes.
func newResult(n int) Result {
	return Result{
		MovesPerProcess:                 make([]int, n),
		MovesPerRule:                    make(map[string]int),
		StabilizationMoves:              -1,
		StabilizationRounds:             -1,
		StabilizationSteps:              -1,
		StabilizationMovesPerProcessMax: -1,
	}
}

// recordMove accounts one rule execution by process u.
func (r *Result) recordMove(u int, rule string) {
	r.Moves++
	r.MovesPerProcess[u]++
	r.MovesPerRule[rule]++
}

// markLegitimate records the costs incurred up to the first legitimate
// configuration. partialRound reports whether a round was still in progress
// when the configuration was reached; it counts as one round, matching the
// conservative convention of the final Rounds count.
func (r *Result) markLegitimate(partialRound bool) {
	r.LegitimateReached = true
	r.StabilizationMoves = r.Moves
	r.StabilizationSteps = r.Steps
	r.StabilizationRounds = r.Rounds
	if partialRound {
		r.StabilizationRounds++
	}
	maxMoves := 0
	for _, m := range r.MovesPerProcess {
		if m > maxMoves {
			maxMoves = m
		}
	}
	r.StabilizationMovesPerProcessMax = maxMoves
}

// finish computes the derived fields once the run has ended. Both round
// counts share the partial-round convention, so StabilizationRounds never
// exceeds the final Rounds.
func (r *Result) finish() {
	for _, m := range r.MovesPerProcess {
		if m > r.MaxMovesPerProcess {
			r.MaxMovesPerProcess = m
		}
	}
}

// Engine executes an algorithm on a network under a daemon.
type Engine struct {
	net    *Network
	alg    Algorithm
	daemon Daemon
}

// NewEngine builds an engine. It panics when any argument is nil.
func NewEngine(net *Network, alg Algorithm, daemon Daemon) *Engine {
	if net == nil || alg == nil || daemon == nil {
		panic("sim: NewEngine requires a network, an algorithm and a daemon")
	}
	return &Engine{net: net, alg: alg, daemon: daemon}
}

// Network returns the engine's network.
func (e *Engine) Network() *Network { return e.net }

// Algorithm returns the engine's algorithm.
func (e *Engine) Algorithm() Algorithm { return e.alg }

// Daemon returns the engine's daemon.
func (e *Engine) Daemon() Daemon { return e.daemon }

func (e *Engine) checkStart(start *Configuration) {
	if start.N() != e.net.N() {
		panic(fmt.Sprintf("sim: configuration has %d states for %d processes", start.N(), e.net.N()))
	}
}

// Run executes the algorithm from the given starting configuration until a
// terminal configuration is reached or the step bound is hit. The starting
// configuration is not modified. It is RunE with invalid option combinations
// turned into panics; callers that prefer errors use RunE directly.
func (e *Engine) Run(start *Configuration, opts ...Option) Result {
	res, err := e.RunE(start, opts...)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// RunE executes the algorithm from the given starting configuration until a
// terminal configuration is reached or the step bound is hit, reporting
// invalid option combinations as errors. The starting configuration is not
// modified.
//
// The loop is incremental and allocation-free in the steady state: the
// enabled set is maintained as a bitset and, after a step, only the
// activated processes and their neighbours are re-evaluated — rule guards
// read closed neighbourhoods only (the locally shared memory model), so
// enabledness cannot change anywhere else. The configuration is
// double-buffered instead of cloned per step, and the neutralization-based
// round accounting runs on reusable bitsets. The tests retain the
// straightforward implementation as RunReference; the two are differentially
// tested to produce bit-identical Results.
//
// With WithShards(k), k > 1, the run executes the sharded loop of
// runSharded instead: guard evaluation and rule execution are partitioned
// across k contiguous node ranges and run concurrently (see WithShards for
// the daemon semantics).
func (e *Engine) RunE(start *Configuration, opts ...Option) (Result, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return Result{}, err
	}
	e.checkStart(start)
	if o.shards > 1 {
		return e.runSharded(start, o), nil
	}
	return e.run(start, o), nil
}

// run is the sequential engine loop behind Run and RunE.
func (e *Engine) run(start *Configuration, o Options) Result {
	n := e.net.N()
	ev := NewEvaluator(e.alg, e.net)
	rules := ev.Rules()

	// Double-buffered state vectors: guards and the daemon read cur, the
	// step's writes land in next, and the two swap after every step.
	curStates := make([]State, n)
	for u := 0; u < n; u++ {
		curStates[u] = start.State(u).Clone()
	}
	nextStates := make([]State, n)
	curCfg := &Configuration{states: curStates}
	nextCfg := &Configuration{states: nextStates}

	res := newResult(n)

	// With an injector attached the predicate is evaluated once per boundary
	// into curLegit (recovery tracking needs the *current* verdict, not the
	// sticky first-stabilization one); recordLegit then reuses it instead of
	// re-evaluating.
	inj := o.injector
	curLegit := false
	evalLegit := func() {
		if o.legitimate != nil {
			curLegit = o.legitimate(curCfg)
		}
	}

	recordLegit := func(partialRound bool) {
		if res.LegitimateReached || o.legitimate == nil {
			return
		}
		if inj != nil {
			if curLegit {
				res.markLegitimate(partialRound)
			}
			return
		}
		if o.legitimate(curCfg) {
			res.markLegitimate(partialRound)
		}
	}

	// openEvents tracks injected events whose recovery has not completed yet:
	// the counter values at the moment each event fired. All open events
	// close together at the next legitimate configuration.
	type openEvent struct {
		idx, steps, moves, rounds int
	}
	var openEvents []openEvent
	closeRecovered := func(partialRound bool) {
		if !curLegit || len(openEvents) == 0 {
			return
		}
		for _, oe := range openEvents {
			rec := &res.Events[oe.idx]
			rec.Recovered = true
			rec.RecoverySteps = res.Steps - oe.steps
			rec.RecoveryMoves = res.Moves - oe.moves
			rec.RecoveryRounds = res.Rounds - oe.rounds
			if partialRound {
				rec.RecoveryRounds++
			}
		}
		openEvents = openEvents[:0]
	}

	// enabledBits is the authoritative enabled set; enabledList is its sorted
	// materialisation handed to daemons.
	enabledBits := newBitset(n)
	for u := 0; u < n; u++ {
		if ev.Enabled(curCfg, u) {
			enabledBits.set(u)
		}
	}
	enabledList := enabledBits.appendIndices(make([]int, 0, n))

	// Round accounting (neutralization-based): pending holds the processes
	// enabled at the start of the current round that have neither moved nor
	// been neutralized yet. roundProgress records whether the current round
	// saw any step, so that a final partial round is counted.
	pending := newBitset(n)
	pending.copyFrom(enabledBits)
	wasEnabled := newBitset(n)
	activated := newBitset(n)
	touched := newBitset(n)
	roundProgress := false

	// Reusable per-step scratch buffers.
	selectedBuf := make([]int, 0, n)
	ruleNames := make([]string, 0, n)
	ruleIdx := make([]int, 0, len(rules))
	dedup := newBitset(n)

	evalLegit()
	recordLegit(false)
	closeRecovered(false)

	for {
		if inj != nil {
			// Injection boundary: consult the injector before selecting the
			// next step (and again after each applied event — several events
			// may fire back to back, and at a terminal configuration the
			// injector gets to perturb the system instead of ending the run).
			p := InjectionPoint{
				Step:       res.Steps,
				Round:      res.Rounds,
				Moves:      res.Moves,
				Config:     curCfg,
				Net:        e.net,
				Legitimate: curLegit,
				Terminal:   len(enabledList) == 0,
			}
			if injn := inj.Inject(p); injn != nil {
				// Close the partial round in progress: rounds after the event
				// belong to its recovery.
				if roundProgress {
					res.Rounds++
					roundProgress = false
				}
				res.Events = append(res.Events, EventRecovery{
					Label:            injn.Label,
					Step:             res.Steps,
					Round:            res.Rounds,
					LegitimateBefore: curLegit,
					RecoverySteps:    -1,
					RecoveryMoves:    -1,
					RecoveryRounds:   -1,
				})
				openEvents = append(openEvents, openEvent{
					idx:    len(res.Events) - 1,
					steps:  res.Steps,
					moves:  res.Moves,
					rounds: res.Rounds,
				})
				e.applyInjection(injn, curStates)

				// Re-seed the incremental machinery: states and topology may
				// have changed arbitrarily, so the whole enabled set is
				// recomputed and a fresh round starts at the perturbed
				// configuration.
				for u := 0; u < n; u++ {
					if ev.Enabled(curCfg, u) {
						enabledBits.set(u)
					} else {
						enabledBits.clear(u)
					}
				}
				enabledList = enabledBits.appendIndices(enabledList[:0])
				pending.copyFrom(enabledBits)

				evalLegit()
				recordLegit(false)
				closeRecovered(false)
				continue
			}
		}
		if len(enabledList) == 0 {
			break
		}
		if res.Steps >= o.maxSteps {
			res.HitStepLimit = true
			break
		}
		if o.stopWhenLegitimate {
			if inj == nil {
				if res.LegitimateReached {
					break
				}
			} else if inj.Done() && curLegit {
				// Injected runs may not stop at the first legitimate
				// configuration: later events would never fire. They stop
				// once the schedule is exhausted and the system recovered.
				break
			}
		}

		// Phase profiling: on sampled steps the loop records the wall time of
		// each phase. The clock reads sit between phases, never inside them,
		// and nothing here feeds back into the execution.
		profStep := false
		var tStep, t0 time.Time
		if o.profiler != nil {
			if profStep = o.profiler.StartStep(); profStep {
				tStep = time.Now()
				t0 = tStep
			}
		}

		raw := e.daemon.Select(Selection{
			Net:     e.net,
			Alg:     e.alg,
			Config:  curCfg,
			Enabled: enabledList,
			Step:    res.Steps,
		})
		selected := sanitizeSelectionInto(selectedBuf[:0], raw, n, enabledBits, dedup, enabledList)
		selectedBuf = selected[:0]
		if profStep {
			o.profiler.Observe(obs.PhaseSelect, time.Since(t0))
			t0 = time.Now()
		}

		// Composite atomicity: all selected processes read cur and their
		// writes are installed together in next.
		copy(nextStates, curStates)
		ruleNames = ruleNames[:0]
		for _, u := range selected {
			v := e.net.View(curCfg, u)
			ri := chooseRule(rules, v, o, ruleIdx)
			if ri < 0 {
				// Defensive: the daemon selected a non-enabled process; skip.
				ruleNames = append(ruleNames, "")
				continue
			}
			nextStates[u] = rules[ri].Action(v)
			ruleNames = append(ruleNames, rules[ri].Name)
			res.recordMove(u, rules[ri].Name)
		}
		if profStep {
			o.profiler.Observe(obs.PhaseExecute, time.Since(t0))
			t0 = time.Now()
		}

		// Snapshot the pre-step enabled set for neutralization accounting and
		// mark the closed neighbourhoods whose guards must be re-evaluated.
		wasEnabled.copyFrom(enabledBits)
		activated.reset()
		touched.reset()
		for _, u := range selected {
			activated.set(u)
			touched.set(u)
			for i, deg := 0, e.net.Degree(u); i < deg; i++ {
				touched.set(e.net.Neighbor(u, i))
			}
		}

		// Install the step and refresh enabledness only where it can change.
		curStates, nextStates = nextStates, curStates
		curCfg, nextCfg = nextCfg, curCfg
		for wi, word := range touched {
			base := wi << 6
			for word != 0 {
				u := base + bits.TrailingZeros64(word)
				word &= word - 1
				if ev.Enabled(curCfg, u) {
					enabledBits.set(u)
				} else {
					enabledBits.clear(u)
				}
			}
		}
		enabledList = enabledBits.appendIndices(enabledList[:0])
		if profStep {
			o.profiler.Observe(obs.PhaseGuard, time.Since(t0))
			t0 = time.Now()
		}
		roundProgress = true

		// pending loses the activated processes and the neutralized ones
		// (enabled before the step, not activated, not enabled after it).
		pending.subtract(activated)
		pending.subtractDiff(wasEnabled, enabledBits)

		for _, h := range o.hooks {
			h(StepInfo{
				Step:      res.Steps,
				Activated: selected,
				Rules:     ruleNames,
				Before:    nextCfg,
				After:     curCfg,
				Round:     res.Rounds,
			})
		}
		res.Steps++

		if pending.empty() {
			// The round is complete; the next one starts at cur.
			res.Rounds++
			roundProgress = false
			pending.copyFrom(enabledBits)
		}

		if inj != nil {
			evalLegit()
			if curLegit {
				res.LegitimateSteps++
			}
		}
		recordLegit(roundProgress)
		closeRecovered(roundProgress)
		if profStep {
			o.profiler.Observe(obs.PhaseAccount, time.Since(t0))
			o.profiler.EndStep(time.Since(tStep))
		}
	}

	if roundProgress {
		// A partial round was in progress when the run stopped; count it so
		// that round counts are conservative upper estimates.
		res.Rounds++
	}
	res.Terminated = len(enabledList) == 0
	res.Final = NewConfiguration(curStates)
	res.finish()
	return res
}

// sanitizeSelectionInto is the allocation-free selection sanitizer of the hot
// loop: it appends to out the selected processes that are actually enabled,
// de-duplicated (via the dedup scratch bitset, left cleared) and sorted; when
// the daemon misbehaves and returns an empty or fully invalid selection, the
// first enabled process is used so that the run always makes progress
// (matching the "distributed" requirement that at least one enabled process
// moves).
func sanitizeSelectionInto(out, selected []int, n int, enabledBits, dedup bitset, enabled []int) []int {
	for _, u := range selected {
		if u < 0 || u >= n || !enabledBits.get(u) || dedup.get(u) {
			continue
		}
		dedup.set(u)
		out = append(out, u)
	}
	for _, u := range out {
		dedup.clear(u)
	}
	if len(out) == 0 {
		return append(out, enabled[0])
	}
	slices.Sort(out)
	return out
}

// chooseRule returns the index of the rule process v executes, or -1 when no
// rule is enabled. scratch is a reusable buffer for the RandomEnabledRule
// policy; it must have capacity for all rule indices.
func chooseRule(rules []Rule, v View, o Options, scratch []int) int {
	enabled := scratch[:0]
	for i, r := range rules {
		if r.Guard(v) {
			if o.ruleChoice == FirstEnabledRule {
				return i
			}
			enabled = append(enabled, i)
		}
	}
	if len(enabled) == 0 {
		return -1
	}
	// Options.validate rejects a nil rng for RandomEnabledRule, so o.rng is
	// always set here.
	return enabled[o.rng.Intn(len(enabled))]
}
