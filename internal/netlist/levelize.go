package netlist

import (
	"slices"
	"strings"
)

// Levelization is the topological structure of the combinational netlist.
type Levelization struct {
	// Levels[k] holds the instances at topological depth k (all of whose
	// fanin instances are at depths < k), sorted by name within a level.
	Levels [][]*Inst
	// Feedback holds the instances that could not be assigned a finite
	// level: those on combinational cycles and everything downstream of
	// one. The noise and timing engines handle these by fixpoint
	// iteration.
	Feedback []*Inst
}

// NumLeveled returns the count of acyclic (leveled) instances.
func (l *Levelization) NumLeveled() int {
	n := 0
	for _, lv := range l.Levels {
		n += len(lv)
	}
	return n
}

// Ordered returns every leveled instance in a valid topological order.
func (l *Levelization) Ordered() []*Inst {
	out := make([]*Inst, 0, l.NumLeveled())
	for _, lv := range l.Levels {
		out = append(out, lv...)
	}
	return out
}

// Levelize computes the topological levels of the design's instances using
// Kahn's algorithm over the instance graph (edge A→B when A drives a net B
// reads). Instances left over after the peel are on combinational cycles
// and are reported in Feedback with Level == -1. Each instance's Level
// field is updated in place.
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
// live in one int32 slice indexed by Inst.ID, and fanout traversal goes
// straight through the maintained output/load connection views, so the
// peel allocates only the level slices themselves.
func (d *Design) levelize() *Levelization {
	insts := d.insts.all()
	indeg := make([]int32, len(insts))
	for _, i := range insts {
		i.Level = -1
	}
	// Count fanin edges: one per (driving instance, reading input conn)
	// pair, with multiplicity — multiplicity is harmless for Kahn as long
	// as decrements match. Self-edges count too: an instance driving its
	// own input is a one-gate combinational cycle, and its indegree can
	// never reach zero (the decrement below only runs when the driver is
	// leveled), so it correctly lands in Feedback rather than getting a
	// bogus finite level.
	for _, i := range insts {
		for _, c := range i.Inputs() {
			if drv := c.Net.Driver(); drv != nil && drv.Inst != nil {
				indeg[i.id]++
			}
		}
	}
	frontier := make([]*Inst, 0, len(insts))
	for _, i := range insts {
		if indeg[i.id] == 0 {
			frontier = append(frontier, i)
		}
	}
	var lev Levelization
	level := 0
	for len(frontier) > 0 {
		slices.SortFunc(frontier, byInstName)
		for _, i := range frontier {
			i.Level = level
		}
		lev.Levels = append(lev.Levels, frontier)
		var next []*Inst
		for _, i := range frontier {
			for _, oc := range i.Outputs() {
				for _, lc := range oc.Net.Loads() {
					fo := lc.Inst
					if fo == nil || fo.Level >= 0 {
						continue
					}
					// One decrement per (i → input conn of fo) edge,
					// matching the count above.
					indeg[fo.id]--
					if indeg[fo.id] == 0 {
						next = append(next, fo)
					}
				}
			}
		}
		frontier = next
		level++
	}
	for _, i := range insts {
		if i.Level < 0 {
			lev.Feedback = append(lev.Feedback, i)
		}
	}
	slices.SortFunc(lev.Feedback, byInstName)
	return &lev
}

func byInstName(a, b *Inst) int { return strings.Compare(a.Name, b.Name) }
