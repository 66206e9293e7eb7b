package netlist

import (
	"slices"
	"strings"
)

// Levelization is the topological structure of the combinational netlist.
type Levelization struct {
	// Levels[k] holds the instances at topological depth k (all of whose
	// fanin instances are at depths < k), sorted by name within a level.
	Levels [][]InstID
	// Feedback holds the instances that could not be assigned a finite
	// level: those on combinational cycles and everything downstream of
	// one. The noise and timing engines handle these by fixpoint
	// iteration.
	Feedback []InstID

	level []int32 // by instance ID
}

// Level returns instance i's topological depth from the primary inputs,
// or -1 for an instance in Feedback.
func (l *Levelization) Level(i InstID) int { return int(l.level[i]) }

// Ordered returns every leveled instance in a valid topological order.
func (l *Levelization) Ordered() []InstID { return slices.Concat(l.Levels...) }

// Levelize computes the topological levels of the design's instances using
// Kahn's algorithm over the instance graph (edge A→B when A drives a net B
// reads). Instances left over after the peel are on combinational cycles
// and are reported in Feedback with level -1.
//
// The result is cached: repeated calls on an unmodified design return
// the same Levelization without recomputing, which also makes a bound
// design safe to share across concurrent engines (the first Levelize
// wins; later calls are read-only). Callers must treat the returned
// structure as immutable. Any builder mutation invalidates the cache.
func (d *Design) Levelize() *Levelization {
	d.cache.Lock()
	defer d.cache.Unlock()
	if d.cache.lev != nil && d.cache.levVer == d.version {
		return d.cache.lev
	}
	lev := d.levelize()
	d.cache.lev, d.cache.levVer = lev, d.version
	return lev
}

// levelize is the uncached Kahn peel over dense instance IDs: indegrees
// and levels live in int32 slices indexed by InstID, and fanout traversal
// goes straight through the maintained output/load connection views, so
// the peel allocates only those and the level slices themselves.
func (d *Design) levelize() *Levelization {
	n := d.insts.n
	indeg := make([]int32, n)
	lev := Levelization{level: make([]int32, n)}
	// Count fanin edges: one per (driving instance, reading input conn)
	// pair, with multiplicity — multiplicity is harmless for Kahn as long
	// as decrements match. Self-edges count too: an instance driving its
	// own input is a one-gate combinational cycle, and its indegree can
	// never reach zero (the decrement below only runs when the driver is
	// leveled), so it correctly lands in Feedback rather than getting a
	// bogus finite level.
	frontier := make([]InstID, 0, n)
	for i := range InstID(n) {
		lev.level[i] = -1
		for _, c := range d.Inputs(i) {
			if d.DriverInst(d.Conn(c).Net) >= 0 {
				indeg[i]++
			}
		}
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	byName := func(a, b InstID) int { return strings.Compare(d.InstName(a), d.InstName(b)) }
	for level := int32(0); len(frontier) > 0; level++ {
		slices.SortFunc(frontier, byName)
		for _, i := range frontier {
			lev.level[i] = level
		}
		lev.Levels = append(lev.Levels, frontier)
		var next []InstID
		for _, i := range frontier {
			for _, oc := range d.Outputs(i) {
				for _, lc := range d.Loads(d.Conn(oc).Net) {
					fo := d.Conn(lc).Inst
					if fo < 0 || lev.level[fo] >= 0 {
						continue
					}
					// One decrement per (i → input conn of fo) edge,
					// matching the count above.
					indeg[fo]--
					if indeg[fo] == 0 {
						next = append(next, fo)
					}
				}
			}
		}
		frontier = next
	}
	for i := range InstID(n) {
		if lev.level[i] < 0 {
			lev.Feedback = append(lev.Feedback, i)
		}
	}
	slices.SortFunc(lev.Feedback, byName)
	return &lev
}
