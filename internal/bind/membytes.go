package bind

import "unsafe"

// MemBytes estimates the heap footprint of the bound design in bytes:
// the netlist database, the cell library, and every per-net RC network.
// The lazily filled analysis cache is priced at its slice backing only
// (entries appear after binding, and the budget governs admission, not
// steady-state growth). Deterministic and allocation-free; the server's
// shared design cache charges this value against its byte budget.
func (b *Design) MemBytes() int64 {
	total := int64(unsafe.Sizeof(*b))
	total += b.Net.MemBytes()
	total += b.Lib.MemBytes()
	ptr := int64(unsafe.Sizeof(uintptr(0)))
	total += int64(cap(b.nets)+cap(b.cells)+cap(b.analyses)) * ptr
	for _, nw := range b.nets {
		if nw != nil {
			total += nw.MemBytes()
		}
	}
	return total
}
