package netlist

import "unsafe"

// MemBytes estimates the resident heap footprint of the design database
// in bytes: the object arenas at chunk granularity, the name index (its
// table, its symbols and the one copy of each name they hold), and the
// connection lists. It is an estimator, not an accounting of every
// allocation — allocator size-class rounding and the lazily built sorted
// views are left out — but it is deterministic, cheap (one pass over the
// arenas, no allocation), and tracks the real footprint closely enough to
// budget a shared design cache against.
func (d *Design) MemBytes() int64 {
	b := int64(unsafe.Sizeof(*d)) + int64(cap(d.slots))*int64(unsafe.Sizeof(slot{}))
	b += arenaBytes(&d.syms) + arenaBytes(&d.nets) + arenaBytes(&d.insts) + arenaBytes(&d.conns) + arenaBytes(&d.ports)
	// Every Name, Cell, Pin and Port string is a header inside an arena
	// element sharing these bytes.
	d.syms.each(func(s *sym) { b += int64(len(s.name)) })
	conns := len(d.spare)
	d.nets.each(func(n *Net) { conns += cap(n.Conns) + cap(n.loads) })
	d.insts.each(func(i *Inst) { conns += cap(i.conns) })
	return b + int64(conns)*int64(unsafe.Sizeof(uintptr(0)))
}

func arenaBytes[T any](a *arena[T]) int64 {
	var elem T
	var b int64
	for _, c := range a.chunks {
		b += int64(cap(c)) * int64(unsafe.Sizeof(elem))
	}
	return b
}
