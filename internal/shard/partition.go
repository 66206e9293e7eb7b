package shard

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
)

// Assignment maps every analyzed net to its owning shard and precomputes
// each shard's import set.
type Assignment struct {
	// Shards is the effective shard count (clamped to the net count).
	Shards int
	// Seed is the partitioning seed the assignment was grown from.
	Seed int64
	// Owner maps net name to shard id.
	Owner map[string]int
	// Owned lists each shard's nets, sorted.
	Owned [][]string
	// Imports lists, per shard, the fanin nets of its owned nets that are
	// owned elsewhere, sorted — the boundary combinations the shard must
	// receive before (re)evaluating a wave.
	Imports [][]string
	// CutEdges counts affinity-graph edges crossing shard boundaries — a
	// partition-quality metric for logs and tests.
	CutEdges int
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
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	asn := &Assignment{
		Shards: shards,
		Seed:   seed,
		Owner:  make(map[string]int, n),
		Owned:  make([][]string, shards),
	}

	// Feedback nets first: all pinned to shard 0, over quota if need be.
	for _, net := range plan.Feedback {
		asn.Owner[net] = 0
	}
	free := make([]string, 0, n)
	for _, net := range plan.Order {
		if _, pinned := asn.Owner[net]; !pinned {
			free = append(free, net)
		}
	}
	sort.Strings(free)
	unassigned := make(map[string]bool, len(free))
	for _, net := range free {
		unassigned[net] = true
	}

	// Quotas: distribute the free nets evenly; shard 0's pinned feedback
	// nets ride on top of its quota.
	quota := make([]int, shards)
	for i := range free {
		quota[i%shards]++
	}

	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < shards; s++ {
		grown := 0
		var queue []string
		for grown < quota[s] {
			if len(queue) == 0 {
				// Re-seed the region pseudo-randomly among the remaining
				// nets (deterministic under the run seed). Rebuilding the
				// sorted remainder keeps selection order-independent of
				// map iteration.
				rest := make([]string, 0, len(unassigned))
				for _, net := range free {
					if unassigned[net] {
						rest = append(rest, net)
					}
				}
				if len(rest) == 0 {
					break
				}
				queue = append(queue, rest[rng.Intn(len(rest))])
			}
			net := queue[0]
			queue = queue[1:]
			if !unassigned[net] {
				continue
			}
			delete(unassigned, net)
			asn.Owner[net] = s
			grown++
			// Grow along affinity edges, nearest (sorted) first.
			queue = append(queue, plan.Adjacency[net]...)
		}
	}
	// Anything left (only possible if every quota filled early, which the
	// accounting above prevents — kept as a safety net) goes round-robin.
	rest := make([]string, 0, len(unassigned))
	for _, net := range free {
		if unassigned[net] {
			rest = append(rest, net)
		}
	}
	for i, net := range rest {
		asn.Owner[net] = i % shards
	}

	for _, net := range plan.Order {
		s := asn.Owner[net]
		asn.Owned[s] = append(asn.Owned[s], net)
	}
	for s := range asn.Owned {
		sort.Strings(asn.Owned[s])
	}
	asn.Imports = make([][]string, shards)
	for s := range asn.Imports {
		seen := make(map[string]bool)
		var imports []string
		for _, net := range asn.Owned[s] {
			for _, fanin := range plan.Fanin[net] {
				if asn.Owner[fanin] != s && !seen[fanin] {
					seen[fanin] = true
					imports = append(imports, fanin)
				}
			}
		}
		sort.Strings(imports)
		asn.Imports[s] = imports
	}
	for net, neighbours := range plan.Adjacency {
		for _, other := range neighbours {
			if net < other && asn.Owner[net] != asn.Owner[other] {
				asn.CutEdges++
			}
		}
	}
	return asn, nil
}
