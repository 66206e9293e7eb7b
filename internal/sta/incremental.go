package sta

import (
	"context"
	"slices"

	"repro/internal/netlist"
)

// Incremental padding update: the joint noise–timing loop grows
// Options.WindowPadding on a handful of nets each round and re-runs
// timing. A from-scratch run redoes every instance; but padding on net N
// can only change the annotations of N itself and everything downstream of
// it, so an incremental update re-evaluates just that cone and leaves the
// rest of the annotation untouched.
//
// Correctness relies on two properties of the forward pass:
//
//   - evalInst merges the freshly computed output window with any previous
//     annotation before applying padding (the union is for loop fixpoints).
//     A padded stale annotation must therefore never be merged into a
//     re-evaluation — the padding would be applied twice. The update
//     clears every dirty instance's output annotations before walking the
//     levelized order, so each dirty instance computes exactly what a
//     fresh run would.
//
//   - port-driven nets are seeded directly and never receive padding in
//     the forward pass, so padding entries on them do not dirty anything.
//
// Designs with combinational feedback fall back to a full fresh run: a
// loop fixpoint restarted from a padded annotation could settle elsewhere
// than a fresh run's, and equality with the from-scratch engine is the
// contract here.

// UpdatePaddingCtx re-runs timing incrementally after opts.WindowPadding
// changed on the given nets, mutating the Result in place. It returns the
// IDs of the nets whose annotation was recomputed, ascending (a superset of
// the nets whose timing actually changed). opts must match the options of
// the run that produced the Result, apart from the padding values.
func (res *Result) UpdatePaddingCtx(ctx context.Context, opts Options, changed []netlist.NetID) ([]netlist.NetID, error) {
	opts.fill()
	b := res.design
	d := b.Net
	lev := d.Levelize()
	var retimed []netlist.NetID
	if len(lev.Feedback) > 0 {
		fresh, err := RunCtx(ctx, b, opts, res.workers)
		if err != nil {
			return nil, err
		}
		*res = *fresh
		for id, ok := range res.hasNet {
			if id&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if ok {
				retimed = append(retimed, netlist.NetID(id))
			}
		}
		return retimed, nil
	}

	// Seed: the instances driving the changed nets. Port-driven nets are
	// seeded, not evaluated, so padding never applies to them. Then the
	// fanout closure over instances: a re-evaluated output perturbs every
	// instance reading it. queue ends up holding every dirty instance.
	dirty := make([]bool, d.NumInsts())
	var queue []netlist.InstID
	mark := func(inst netlist.InstID) {
		if inst >= 0 && !dirty[inst] {
			dirty[inst] = true
			queue = append(queue, inst)
		}
	}
	for _, net := range changed {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mark(d.DriverInst(net))
	}
	for qi := 0; qi < len(queue); qi++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, oc := range d.Outputs(queue[qi]) {
			for _, lc := range d.Loads(d.Conn(oc).Net) {
				mark(d.Conn(lc).Inst)
			}
		}
	}
	if len(queue) == 0 {
		return nil, nil
	}
	// Clear the dirty annotations first (see the double-padding note
	// above), then re-evaluate in levelized order so every dirty
	// instance's inputs are final when it runs.
	for _, inst := range queue {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, oc := range d.Outputs(inst) {
			net := d.Conn(oc).Net
			res.hasNet[net] = false
			retimed = append(retimed, net)
		}
	}
	for i, inst := range lev.Ordered() {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !dirty[inst] {
			continue
		}
		if err := res.evalInst(inst, &opts); err != nil {
			return nil, err
		}
	}
	if opts.ClockPeriod > 0 {
		if err := res.computeRequired(&opts); err != nil {
			return nil, err
		}
	}
	slices.Sort(retimed)
	return slices.Compact(retimed), nil
}
