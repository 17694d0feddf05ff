package sim

import (
	"math/bits"
	"slices"
	"sync"
	"time"

	"sdr/internal/obs"
)

// Sharded execution. WithShards(k) partitions the processes into k contiguous
// index ranges ("shards") and runs the per-step work — guard re-evaluation
// and rule execution — concurrently, one goroutine per shard. The topology is
// read through the compact CSR adjacency arrays (graph.CSR), which are
// fetched once before the parallel phases and re-fetched at every injection
// boundary, so shards never observe a topology mid-mutation.
//
// Exactness. Under the SynchronousDaemon the sharded loop is bit-identical
// to the sequential one: the daemon activates every enabled process, the
// union of the per-shard selections is exactly the global enabled set, rule
// choice is deterministic (FirstEnabledRule; RandomEnabledRule is rejected,
// see Options.validate), and all accounting is merged in ascending shard
// order. The differential tests in shard_test.go pin this.
//
// Locally-central daemon family. Every other daemon is consulted once per
// shard and step, on the shard's slice of the enabled set, and the step
// activates the union of the per-shard selections. This changes the daemon's
// semantics: a central daemon activates one process per *non-empty shard*
// per step instead of one per step, a round-robin daemon keeps one global
// cursor walked shard by shard, and so on. We call the results the
// "locally-central sharded family" of the base daemons. They remain legal
// schedules of the distributed unfair daemon (every selection is a non-empty
// subset of the enabled set) and are deterministic for a fixed seed and
// shard count, but they are different adversaries than their sequential
// counterparts — complexity measurements under them are not comparable
// across shard counts.
//
// Shard boundaries are aligned to multiples of 64 so that every bitset word
// belongs to exactly one shard: a shard writes only words in its own range
// during re-evaluation, making the phase race-free without atomics. Writes
// to the touched set, whose closed neighbourhoods cross shard boundaries,
// go to a per-shard full-length bitset instead; the per-word OR-merge of
// those bitsets between the apply and re-evaluation phases is the only
// boundary exchange of a step.

// WithShards sets the number of shards of the run (default 1, the
// sequential loop). With k > 1 guard evaluation and rule execution run
// concurrently on k contiguous node ranges. Synchronous-daemon runs are
// bit-identical to sequential ones; all other daemons switch to the
// documented locally-central sharded family (one Select call per non-empty
// shard per step). Sharding is incompatible with RandomEnabledRule;
// Options.validate reports the combination as an error. Shard
// counts larger than ⌈n/64⌉ are silently capped (boundaries are 64-aligned
// so that bitset words have a single writer).
func WithShards(k int) Option {
	return func(o *Options) { o.shards = k }
}

// engineShard is the per-shard state of a sharded run.
type engineShard struct {
	idx            int // position in the shard slice
	lo, hi         int // node range [lo, hi)
	wordLo, wordHi int // bitset word range [wordLo, wordHi), exclusively owned

	// touched marks the closed neighbourhoods of this shard's activated
	// processes. It is full-length: neighbours of a boundary process live in
	// other shards' ranges, and routing those marks through a private bitset
	// is what keeps the apply phase free of cross-shard writes.
	touched bitset

	// selected is the shard's sanitized selection of the current step;
	// ruleIdxs/ruleNames record the chosen rule per selected process.
	selected  []int
	ruleIdxs  []int
	ruleNames []string

	// scratch buffers reused across steps.
	dedup      bitset
	ruleChoice []int
}

// makeShards partitions [0, n) into at most k word-aligned contiguous
// ranges. Every shard is non-empty; the effective count is min(k, ⌈n/64⌉).
func makeShards(n, k int) []engineShard {
	words := (n + 63) / 64
	if k > words {
		k = words
	}
	if k < 1 {
		k = 1
	}
	shards := make([]engineShard, k)
	for s := range shards {
		wordLo := s * words / k
		wordHi := (s + 1) * words / k
		lo := wordLo * 64
		hi := wordHi * 64
		if hi > n {
			hi = n
		}
		shards[s] = engineShard{
			idx: s,
			lo:  lo, hi: hi,
			wordLo: wordLo, wordHi: wordHi,
			touched: newBitset(n),
			dedup:   newBitset(n),
		}
	}
	return shards
}

// runSharded is the sharded engine loop behind RunE. It mirrors run step for
// step — selection, composite-atomic apply, neutralization-based round
// accounting, injection boundaries — but splits the per-step work across
// shards. run is the reference oracle; the differential tests in
// shard_test.go compare the two.
func (e *Engine) runSharded(start *Configuration, o Options) Result {
	n := e.net.N()
	ev := NewEvaluator(e.alg, e.net)
	rules := ev.Rules()
	shards := makeShards(n, o.shards)

	// Compact the topology before fanning out: the parallel phases read
	// adjacency through the CSR arrays, and compaction must not race.
	e.net.CSR()

	curStates := make([]State, n)
	for u := 0; u < n; u++ {
		curStates[u] = start.State(u).Clone()
	}
	nextStates := make([]State, n)
	curCfg := &Configuration{states: curStates}
	nextCfg := &Configuration{states: nextStates}

	res := newResult(n)

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

	// The initial enabled sweep is the first parallel phase: each shard
	// evaluates its own range, writing only its own bitset words.
	enabledBits := newBitset(n)
	parallelShards(shards, func(sh *engineShard) {
		for u := sh.lo; u < sh.hi; u++ {
			if ev.Enabled(curCfg, u) {
				enabledBits.set(u)
			}
		}
	})
	enabledList := enabledBits.appendIndices(make([]int, 0, n))

	pending := newBitset(n)
	pending.copyFrom(enabledBits)
	wasEnabled := newBitset(n)
	activated := newBitset(n)
	touched := newBitset(n)
	roundProgress := false

	selectedAll := make([]int, 0, n)
	ruleNamesAll := make([]string, 0, n)

	// Phase profiling. Per-shard durations of the parallel phases are
	// measured inside the workers into shardDur — each shard writes only its
	// own slot, and parallelShards' join is the happens-before edge — then
	// handed to the profiler sequentially.
	prof := o.profiler
	var shardDur []time.Duration
	if prof != nil {
		shardDur = make([]time.Duration, len(shards))
	}

	evalLegit()
	recordLegit(false)
	closeRecovered(false)

	for {
		if inj != nil {
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

				// The event may have rewritten states and topology
				// arbitrarily: re-compact the CSR arrays (edge edits leave the
				// graph in its mutable form) and re-seed the enabled set with
				// a fresh parallel sweep, exactly like the initial one.
				e.net.CSR()
				parallelShards(shards, func(sh *engineShard) {
					for u := sh.lo; u < sh.hi; u++ {
						if ev.Enabled(curCfg, u) {
							enabledBits.set(u)
						} else {
							enabledBits.clear(u)
						}
					}
				})
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
				break
			}
		}

		profStep := false
		var tStep, t0 time.Time
		if prof != nil {
			if profStep = prof.StartStep(); profStep {
				tStep = time.Now()
				t0 = tStep
			}
		}

		// Selection phase, sequential: the daemon is consulted once per shard
		// holding enabled processes, in ascending shard order, on the shard's
		// contiguous slice of the sorted enabled list. Stateful daemons (rng,
		// cursors) see the sub-calls in that deterministic order.
		selectedAll = selectedAll[:0]
		lo := 0
		for s := range shards {
			sh := &shards[s]
			hi := lo
			for hi < len(enabledList) && enabledList[hi] < sh.hi {
				hi++
			}
			shardEnabled := enabledList[lo:hi]
			lo = hi
			if len(shardEnabled) == 0 {
				sh.selected = sh.selected[:0]
				continue
			}
			raw := e.daemon.Select(Selection{
				Net:     e.net,
				Alg:     e.alg,
				Config:  curCfg,
				Enabled: shardEnabled,
				Step:    res.Steps,
			})
			sh.selected = sanitizeShardSelectionInto(sh.selected[:0], raw, sh.lo, sh.hi, enabledBits, sh.dedup, shardEnabled)
		}
		if profStep {
			prof.Observe(obs.PhaseSelect, time.Since(t0))
			t0 = time.Now()
		}

		// Apply phase, parallel: each shard copies its segment of the double
		// buffer and executes the chosen rule of each of its selected
		// processes, all reading curCfg (composite atomicity). Move
		// accounting is deferred to the sequential merge below — Result's
		// counters and the MovesPerRule map are not safe for concurrent
		// writes.
		parallelShards(shards, func(sh *engineShard) {
			var shardStart time.Time
			if profStep {
				shardStart = time.Now()
			}
			copy(nextStates[sh.lo:sh.hi], curStates[sh.lo:sh.hi])
			sh.ruleIdxs = sh.ruleIdxs[:0]
			for _, u := range sh.selected {
				v := e.net.View(curCfg, u)
				ri := chooseRule(rules, v, o, sh.ruleChoice)
				sh.ruleIdxs = append(sh.ruleIdxs, ri)
				if ri < 0 {
					continue
				}
				nextStates[u] = rules[ri].Action(v)
			}
			// Mark the closed neighbourhoods whose guards must be
			// re-evaluated. The marks go to the shard-private bitset: a
			// boundary process has neighbours in foreign word ranges.
			sh.touched.reset()
			for _, u := range sh.selected {
				sh.touched.set(u)
				for i, deg := 0, e.net.Degree(u); i < deg; i++ {
					sh.touched.set(e.net.Neighbor(u, i))
				}
			}
			if profStep {
				shardDur[sh.idx] = time.Since(shardStart)
			}
		})
		if profStep {
			prof.Observe(obs.PhaseExecute, time.Since(t0))
			for i, d := range shardDur {
				prof.ObserveShard(i, obs.PhaseExecute, d)
			}
			t0 = time.Now()
		}

		// Sequential merge, ascending shard order (= ascending process
		// order, shards are contiguous): selection lists concatenate into
		// the sorted global selection and moves are recorded exactly as the
		// sequential loop would.
		ruleNamesAll = ruleNamesAll[:0]
		for s := range shards {
			sh := &shards[s]
			for i, u := range sh.selected {
				selectedAll = append(selectedAll, u)
				ri := sh.ruleIdxs[i]
				if ri < 0 {
					ruleNamesAll = append(ruleNamesAll, "")
					continue
				}
				ruleNamesAll = append(ruleNamesAll, rules[ri].Name)
				res.recordMove(u, rules[ri].Name)
			}
		}

		wasEnabled.copyFrom(enabledBits)
		activated.reset()
		for _, u := range selectedAll {
			activated.set(u)
		}

		// Install the step.
		curStates, nextStates = nextStates, curStates
		curCfg, nextCfg = nextCfg, curCfg
		if profStep {
			prof.Observe(obs.PhaseMerge, time.Since(t0))
			t0 = time.Now()
		}

		// Boundary exchange + re-evaluation, parallel: each shard OR-merges
		// every shard's touched marks for its own word range — this is the
		// only point where a shard observes its neighbours' writes — and
		// re-evaluates the marked processes of its range, updating
		// exclusively its own enabledBits words.
		parallelShards(shards, func(sh *engineShard) {
			var shardStart time.Time
			if profStep {
				shardStart = time.Now()
			}
			for wi := sh.wordLo; wi < sh.wordHi; wi++ {
				var word uint64
				for s := range shards {
					word |= shards[s].touched[wi]
				}
				touched[wi] = word
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
			if profStep {
				shardDur[sh.idx] = time.Since(shardStart)
			}
		})
		enabledList = enabledBits.appendIndices(enabledList[:0])
		if profStep {
			prof.Observe(obs.PhaseBoundary, time.Since(t0))
			for i, d := range shardDur {
				prof.ObserveShard(i, obs.PhaseBoundary, d)
			}
			t0 = time.Now()
		}
		roundProgress = true

		pending.subtract(activated)
		pending.subtractDiff(wasEnabled, enabledBits)

		for _, h := range o.hooks {
			h(StepInfo{
				Step:      res.Steps,
				Activated: selectedAll,
				Rules:     ruleNamesAll,
				Before:    nextCfg,
				After:     curCfg,
				Round:     res.Rounds,
			})
		}
		res.Steps++

		if pending.empty() {
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
			prof.Observe(obs.PhaseAccount, time.Since(t0))
			prof.EndStep(time.Since(tStep))
		}
	}

	if roundProgress {
		res.Rounds++
	}
	res.Terminated = len(enabledList) == 0
	res.Final = NewConfiguration(curStates)
	res.finish()
	return res
}

// parallelShards runs fn once per shard, concurrently, and waits for all of
// them. The single-shard case stays on the calling goroutine.
func parallelShards(shards []engineShard, fn func(*engineShard)) {
	if len(shards) == 1 {
		fn(&shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(shards) - 1)
	for s := 1; s < len(shards); s++ {
		go func(sh *engineShard) {
			defer wg.Done()
			fn(sh)
		}(&shards[s])
	}
	fn(&shards[0])
	wg.Wait()
}

// sanitizeShardSelectionInto is sanitizeSelectionInto restricted to one
// shard's node range: beyond the usual enabledness/deduplication filtering it
// drops selections outside [lo, hi), since a process can only be applied by
// the shard owning its state segment — accepting a foreign index would make
// two shards write the same double-buffer segment concurrently. The fallback
// for an empty or fully invalid selection is the shard's first enabled
// process.
func sanitizeShardSelectionInto(out, selected []int, lo, hi int, enabledBits, dedup bitset, enabled []int) []int {
	for _, u := range selected {
		if u < lo || u >= hi || !enabledBits.get(u) || dedup.get(u) {
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
