package shard

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
)

// Assignment maps every analyzed net to its owning shard and precomputes
// each shard's import set. Nets are evaluation-order positions (plan.Order).
type Assignment struct {
	// Shards is the effective shard count (clamped to the net count).
	Shards int
	// Owner maps a position to its shard id.
	Owner []int32
	// Owned lists each shard's positions, ascending.
	Owned [][]int32
	// imports lists, per shard, the fanins of its owned nets that are owned
	// elsewhere, ascending — the boundary combinations the shard must
	// receive before (re)evaluating a wave.
	imports [][]int32
	// Imports is imports by net name, for reports; no run reads it.
	Imports [][]string
}

// Partition grows a deterministic partition of the victim set over the
// plan's affinity graph: greedy BFS regions seeded pseudo-randomly (same
// design + same seed + same shard count → identical assignment, on any
// host), balanced to ceil(n/k) nets per shard. Feedback nets are pinned to
// shard 0 — the serial Gauss–Seidel wave reads same-wave combinations, so
// splitting it across shards would break the serial-identical guarantee.
func Partition(plan *core.ShardPlan, shards int, seed int64) (*Assignment, error) {
	n := len(plan.Order)
	if n == 0 {
		return nil, fmt.Errorf("shard: nothing to partition (no analyzable nets)")
	}
	shards = max(1, min(shards, n))
	asn := &Assignment{
		Shards:  shards,
		Owner:   make([]int32, n),
		Owned:   make([][]int32, shards),
		imports: make([][]int32, shards),
		Imports: make([][]string, shards),
	}

	// Feedback nets first: all pinned to shard 0, over quota if need be. The
	// rest are free (owner -1 until grown into), in alphabetical order.
	free := make([]int32, n)
	for p, rank := range plan.Rank {
		free[rank], asn.Owner[p] = int32(p), -1
	}
	if w := plan.Waves[len(plan.Waves)-1]; w.Serial {
		for p := w.Lo; p < w.Hi; p++ {
			asn.Owner[p] = 0
		}
	}
	assigned := func(p int32) bool { return asn.Owner[p] >= 0 }
	free = slices.DeleteFunc(free, assigned)

	// Quotas: distribute the free nets evenly; shard 0's pinned feedback
	// nets ride on top of its quota. They add up to the free nets, so the
	// last region grown takes the last of them.
	quota := make([]int, shards)
	for i := range free {
		quota[i%shards]++
	}

	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < shards; s++ {
		grown := 0
		var queue []int32
		for grown < quota[s] {
			if len(queue) == 0 {
				// Re-seed the region pseudo-randomly among the remaining
				// nets (deterministic under the run seed).
				free = slices.DeleteFunc(free, assigned)
				if len(free) == 0 {
					break
				}
				queue = append(queue, free[rng.Intn(len(free))])
			}
			p := queue[0]
			queue = queue[1:]
			if assigned(p) {
				continue
			}
			asn.Owner[p] = int32(s)
			grown++
			// Grow along affinity edges, alphabetically nearest first.
			queue = append(queue, plan.Adjacency[p]...)
		}
	}

	for p, s := range asn.Owner {
		asn.Owned[s] = append(asn.Owned[s], int32(p))
	}
	for s, owned := range asn.Owned {
		var imports []int32
		for _, p := range owned {
			for _, fanin := range plan.Fanin[p] {
				if asn.Owner[fanin] != int32(s) {
					imports = append(imports, fanin)
				}
			}
		}
		slices.Sort(imports)
		asn.imports[s] = slices.Compact(imports)
		for _, p := range asn.imports[s] {
			asn.Imports[s] = append(asn.Imports[s], plan.Order[p])
		}
	}
	return asn, nil
}
