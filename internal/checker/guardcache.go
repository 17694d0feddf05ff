package checker

import (
	"encoding/binary"

	"sdr/internal/sim"
)

// guardCache answers the exploration's enabledness questions from a table
// keyed by closed neighbourhoods. Guards in the locally shared memory model
// read a process's own state and its neighbours' states only, so the
// enabled-rule bitmask of a process is a pure function of that
// neighbourhood; distinct configurations share most of their
// neighbourhoods, so exploration re-asks the same questions constantly and
// the table answers repeats with one map probe instead of a guard scan.
//
// A key is the sequence (own state id, neighbour state ids in local-label
// order), with every process's identifier folded in for algorithms that
// read View.ID/NeighborID (sim.AlgorithmUsesIdentifiers). Neighbour ids are
// not sorted: guards see neighbours through ordered local labels, so
// permuting them is not semantics-preserving in general. Tables are
// segregated per degree; small neighbourhoods pack their ids into one
// uint64, wider ones spill to a varint string key.
//
// Each exploration worker owns one cache (single-goroutine state); the
// state interner behind the ids is the exploration's configuration-key
// interner, which is internally synchronised. Cached masks are pure
// functions of the neighbourhood, so reports, verdicts and errors are the
// same as with direct guard evaluation.
type guardCache struct {
	net        *sim.Network
	rules      []sim.Rule
	interner   *sim.KeyInterner
	identified bool
	entries    int
	// classes is indexed by degree; nil entries are degrees never filled.
	classes []*cacheClass

	fast   map[uint64]uint64 // Key64 encoding → interned id, lock-free front
	ids    []uint64          // interned state id of each process of the loaded configuration
	masks  []uint64          // enabled-rule mask of each process of the loaded configuration
	comps  []uint64          // reusable key-component buffer
	render []byte            // reusable state-rendering scratch
	spill  []byte            // reusable spill-key scratch
}

// cacheClass is one degree's table: neighbourhoods whose ids fit one uint64
// live in packed, the rest in spill.
type cacheClass struct {
	packed map[uint64]uint64
	spill  map[string]uint64
}

// guardCacheEntries bounds a cache's entry count. Past the cap the cache
// stops filling and keeps serving its existing entries, so unbounded local
// state spaces degrade gracefully to direct guard evaluation.
const guardCacheEntries = 1 << 18

// newGuardCache returns a cache over ev's rules, interning states through
// interner. It returns nil when the enabled set of one process does not fit
// a uint64 mask (more than 64 rules); callers evaluate guards directly then.
func newGuardCache(ev *sim.Evaluator, interner *sim.KeyInterner) *guardCache {
	rules := ev.Rules()
	if len(rules) > 64 {
		return nil
	}
	n := ev.Network().N()
	return &guardCache{
		net:        ev.Network(),
		rules:      rules,
		interner:   interner,
		identified: sim.AlgorithmUsesIdentifiers(ev.Algorithm()),
		fast:       make(map[uint64]uint64),
		ids:        make([]uint64, n),
		masks:      make([]uint64, n),
	}
}

// load computes the enabled-rule mask of every process of c into masks (bit
// i set iff rule i's guard holds); masks and appendEnabled then answer about
// c until the next load.
func (g *guardCache) load(c *sim.Configuration) {
	for u := range g.ids {
		g.ids[u] = g.stateID(c.State(u))
	}
	for u := range g.masks {
		g.masks[u] = g.lookup(c, u)
	}
}

// appendEnabled appends the sorted set of enabled processes of the loaded
// configuration to dst.
func (g *guardCache) appendEnabled(dst []int) []int {
	for u, m := range g.masks {
		if m != 0 {
			dst = append(dst, u)
		}
	}
	return dst
}

// stateID interns s, preferring the cache-local Key64 front (one unlocked
// integer-map probe, no rendering) over the shared interner.
func (g *guardCache) stateID(s sim.State) uint64 {
	k, ok := sim.StateKey64(s)
	if ok {
		if id, hit := g.fast[k]; hit {
			return id
		}
	}
	var id uint64
	id, g.render = g.interner.StateID(s, g.render)
	if ok {
		g.fast[k] = id
	}
	return id
}

// lookup answers u's mask from the table, evaluating the guards directly
// (and filling the table) on a miss.
func (g *guardCache) lookup(c *sim.Configuration, u int) uint64 {
	degree := g.net.Degree(u)
	comps := g.comps[:0]
	if g.identified {
		comps = append(comps, sim.ZigZag64(g.net.ID(u)), g.ids[u])
		for i := 0; i < degree; i++ {
			w := g.net.Neighbor(u, i)
			comps = append(comps, sim.ZigZag64(g.net.ID(w)), g.ids[w])
		}
	} else {
		comps = append(comps, g.ids[u])
		for i := 0; i < degree; i++ {
			comps = append(comps, g.ids[g.net.Neighbor(u, i)])
		}
	}
	g.comps = comps

	for degree >= len(g.classes) {
		g.classes = append(g.classes, nil)
	}
	cl := g.classes[degree]
	if cl == nil {
		cl = &cacheClass{packed: make(map[uint64]uint64)}
		g.classes[degree] = cl
	}
	key, packed := packKey(comps)
	if packed {
		if m, ok := cl.packed[key]; ok {
			return m
		}
	} else {
		g.spill = g.spill[:0]
		for _, x := range comps {
			g.spill = binary.AppendUvarint(g.spill, x)
		}
		if m, ok := cl.spill[string(g.spill)]; ok {
			return m
		}
	}

	v := g.net.View(c, u)
	var m uint64
	for i := range g.rules {
		if g.rules[i].Guard(v) {
			m |= 1 << uint(i)
		}
	}
	if g.entries < guardCacheEntries {
		g.entries++
		if packed {
			cl.packed[key] = m
		} else {
			if cl.spill == nil {
				cl.spill = make(map[string]uint64)
			}
			cl.spill[string(g.spill)] = m
		}
	}
	return m
}

// packKey packs the component ids into one uint64 key, giving each of the
// len(comps) components 64/len(comps) bits. ok is false when a component
// does not fit (the neighbourhood spills to the string key).
func packKey(comps []uint64) (key uint64, ok bool) {
	width := uint(64 / len(comps))
	if width == 0 {
		return 0, false
	}
	if width < 64 { // a single component always fits its full 64 bits
		limit := uint64(1) << width
		for _, c := range comps {
			if c >= limit {
				return 0, false
			}
		}
	}
	for _, c := range comps {
		key = key<<width | c
	}
	return key, true
}
