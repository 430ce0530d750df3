package explore

import (
	"context"
	"sort"

	"flexos/internal/poset"
)

// Budgeted guided search: find the safest feasible configurations and
// the Pareto staircase of a space from a capped number of fresh
// measurements (Request.MeasureBudget) instead of measuring every
// point. The budget selects one of two modes:
//
// Branch-and-bound sweep — when pruning is on and a monotone
// constraint exists, the budget caps the ready-frontier walk (see
// walk) the exhaustive pruned run takes: the walk stops issuing fresh
// measurements when the budget runs out. One measurement that fails a
// monotone floor decides its entire undecided up-set as pruned
// *before* measuring it (the §5 monotonicity assumption,
// contrapositive), so the sweep spends the budget only on the feasible
// region plus the minimal infeasible boundary — the cheapest possible
// certificate: every feasible configuration must be measured to be
// reported, and every minimal infeasible element must be measured for
// anything above it to be pruned soundly. A sweep that completes
// within budget is therefore *exact*: it is the exhaustive pruned
// run, so its report is byte-identical, safest set and Pareto
// staircase included, at a fraction of the measurements. Pass
// membership depends only on prior decisions and the budget, never on
// worker count, so results are byte-identical at every worker count,
// starved or not.
//
// Successive halving — without a prunable constraint there is no
// structure to exploit, so the engine ranks by sampling: candidate
// order is a seeded splittable PRNG over canonical configuration keys;
// each round measures half the remaining budget, re-ranks everything
// valued so far, keeps the top half as survivors, and seeds the next
// round with the survivors' unmeasured poset neighbours (which walks
// the safety/performance staircase) topped up in PRNG order. Round
// membership depends only on (budget, seed) and prior rounds'
// deterministic outcomes — never on worker count.
//
// Configurations the budget never reaches are decided as skipped
// (counted in Result.Skipped, neither evaluated nor pruned). Memo and
// backing hits never consume budget.

// splitmix64 is the standard SplitMix64 finalizer: a cheap, seedable,
// splittable PRNG — hashing seed ^ key-hash yields an independent
// uniform priority stream per seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64a hashes a string with FNV-1a, allocation-free.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// budgetHalving is the sampling mode: seeded successive halving with
// survivor-neighbour expansion. Rounds have deterministic membership;
// only the measurements within a round run in parallel.
func (st *runState) budgetHalving(ctx context.Context, order *spaceOrder, workers, budget int) {
	n := len(st.cfgs)
	preds, succs := order.edges()

	// Candidate order: splitmix64(seed ^ fnv1a(canonical key)) — an
	// independent uniform priority per (seed, key), so a different seed
	// samples a different subset and a fixed seed always samples the
	// same one.
	seed := uint64(st.req.Seed)
	// Ties order by canonical key: the memo keys share the namespace
	// prefix, so they order alike.
	keys, memoKeys := st.space.keys, st.space.memoKeysOf(st.req.Workload)
	type cand struct {
		i    int32
		prio uint64
	}
	elig := make([]cand, 0, n)
	for i := 0; i < n; i++ {
		if int(st.canon[i]) != i || st.decided.Test(i) {
			continue
		}
		elig = append(elig, cand{int32(i), splitmix64(seed ^ fnv64a(memoKeys[i]))})
	}
	sort.Slice(elig, func(a, b int) bool {
		if elig[a].prio != elig[b].prio {
			return elig[a].prio < elig[b].prio
		}
		return keys[elig[a].i] < keys[elig[b].i]
	})

	better := func(a, b int32) bool {
		pa, pb := st.res.Measurements[a].Perf, st.res.Measurements[b].Perf
		if pa != pb {
			if st.metric.HigherIsBetter() {
				return pa > pb
			}
			return pa < pb
		}
		return keys[a] < keys[b]
	}

	picked := poset.NewBitset(n)
	var survivors []int32
	var round []int32
	var pool []int32
	next := 0
	for {
		remaining := budget - st.res.Measured
		if remaining <= 0 || st.canceled || st.failed {
			return
		}
		roundSize := (remaining + 1) / 2

		// Round membership: unmeasured poset neighbours of the current
		// survivors first (walking the frontier staircase), topped up
		// from the global PRNG order. Neighbours that are twins redirect
		// to their canonical rep.
		round = round[:0]
		add := func(j int32) {
			j = st.canon[j]
			if st.decided.Test(int(j)) || picked.Test(int(j)) {
				return
			}
			picked.Set(int(j))
			round = append(round, j)
		}
		for _, s := range survivors {
			if len(round) >= roundSize {
				break
			}
			for _, j := range preds[s] {
				add(j)
			}
			for _, j := range succs[s] {
				add(j)
			}
		}
		if len(round) > roundSize {
			// A survivor's neighbourhood overshot the round: keep the
			// prefix (deterministic) and release the rest for later.
			for _, j := range round[roundSize:] {
				picked.Clear(int(j))
			}
			round = round[:roundSize]
		}
		for next < len(elig) && len(round) < roundSize {
			add(elig[next].i)
			next++
		}
		if len(round) == 0 {
			return
		}

		// Round membership is fixed before the pool starts, so the pool
		// decides only wall-clock time.
		st.runList(ctx, workers, round, nil)
		if st.failed || st.canceled {
			return
		}

		// Re-rank everything valued so far; the top half survive and
		// seed the next round's neighbourhood. Ranking prefers feasible
		// configurations; without any, the best measured lead the walk.
		pool = pool[:0]
		for i := 0; i < n; i++ {
			if int(st.canon[i]) == i && st.valued.Test(i) && st.res.Feasible(i) {
				pool = append(pool, int32(i))
			}
		}
		if len(pool) == 0 {
			for i := 0; i < n; i++ {
				if int(st.canon[i]) == i && st.valued.Test(i) {
					pool = append(pool, int32(i))
				}
			}
		}
		sort.Slice(pool, func(a, b int) bool { return better(pool[a], pool[b]) })
		survivors = pool[:(len(pool)+1)/2]
	}
}
