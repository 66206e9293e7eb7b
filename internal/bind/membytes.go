package bind

import "unsafe"

// MemBytes estimates the heap footprint of the bound design in bytes: the
// netlist database, the cell library, the parasitics database with every
// net's reduction, and the per-connection node table. Deterministic,
// allocation-free and constant-time past the netlist's own estimate; the
// server's shared design cache charges this value against its byte budget.
func (b *Design) MemBytes() int64 {
	return int64(unsafe.Sizeof(*b)) + b.Net.MemBytes() + b.Lib.MemBytes() + b.rc.MemBytes() +
		int64(cap(b.cells))*int64(unsafe.Sizeof(uintptr(0))) + int64(cap(b.connNode))*4
}
