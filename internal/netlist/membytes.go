package netlist

import "unsafe"

// MemBytes estimates the resident heap footprint of the design database
// in bytes: the record tables at chunk granularity, the name index and
// arena, and the connection-list pool. Allocator size-class rounding and
// the lazily built views are left out, but the estimate is deterministic,
// cheap (no pass over the records) and close enough to the real
// footprint to budget a shared design cache against.
func (d *Design) MemBytes() int64 {
	b := int64(unsafe.Sizeof(*d)) + int64(cap(d.slots))*int64(unsafe.Sizeof(slot{}))
	b += arenaBytes(&d.syms) + arenaBytes(&d.nets) + arenaBytes(&d.insts) + arenaBytes(&d.conns) + arenaBytes(&d.ports)
	for _, c := range d.names {
		b += int64(cap(c))
	}
	return b + int64(cap(d.pool))*int64(unsafe.Sizeof(ConnID(0)))
}

func arenaBytes[T any](a *arena[T]) int64 {
	var elem T
	var b int64
	for _, c := range a.chunks {
		b += int64(cap(c)) * int64(unsafe.Sizeof(elem))
	}
	return b
}
