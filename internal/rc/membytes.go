package rc

import "unsafe"

// MemBytes returns the database's heap footprint in bytes — every array at
// its capacity — in constant time. The design cache charges it as part of
// a bound design.
func (db *DB) MemBytes() int64 {
	perNode := cap(db.gcap) + cap(db.load) + cap(db.elmore) + cap(db.m2) + cap(db.rpath)
	perRes := 8*cap(db.ohms) + 4*(cap(db.resA)+cap(db.resB))
	perCpl := 8*cap(db.cplF) + 4*(cap(db.cplNode)+cap(db.cplGroup))
	return int64(unsafe.Sizeof(*db)) + int64(cap(db.nets))*int64(unsafe.Sizeof(Network{})) +
		int64(8*perNode+perRes+perCpl) + int64(cap(db.groups))*int64(unsafe.Sizeof(Group{}))
}
