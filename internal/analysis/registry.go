package analysis

// All returns the full snavet suite in stable order. cmd/snavet runs every
// analyzer; tests run them one at a time against their own testdata.
func All() []*Analyzer {
	return []*Analyzer{
		AckOrder,
		CtxLoop,
		DeferRelease,
		MapDeterm,
		NaNGuard,
	}
}
