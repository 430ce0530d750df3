package explore_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
)

// referenceSpaceHash is the space hash as it was computed before Space
// held the keys: every configuration's key rendered anew.
func referenceSpaceHash(workload string, cfgs []*explore.Config) string {
	h := fnv.New64a()
	h.Write([]byte(workload))
	for _, c := range cfgs {
		h.Write([]byte{0})
		h.Write([]byte(c.Key()))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// keyMeasure is a cheap deterministic measure: throughput is a hash of
// the canonical key, so equal configurations measure equally and about
// half of any space meets a 500k floor.
func keyMeasure(c *explore.Config) (explore.Metrics, error) {
	h := fnv.New64a()
	h.Write([]byte(c.Key()))
	return explore.Metrics{Throughput: float64(h.Sum64() % 1_000_000)}, nil
}

// spaceRun explores sp with the key measure under a 500k floor,
// pruned, and renders everything the order decides: the oracle
// render, the DOT, the safety levels and the Above sets.
func spaceRun(t *testing.T, sp *explore.Space, shard explore.Shard) string {
	t.Helper()
	res, err := explore.Engine{}.Run(context.Background(), explore.Request{
		Space: sp, Measure: keyMeasure, Workers: 4, Prune: true, Shard: shard,
		Constraints: []explore.Constraint{explore.BudgetConstraint("throughput", 500_000)},
	})
	if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(exploretest.RenderResult(res))
	b.WriteString(res.DOT("space"))
	fmt.Fprintln(&b, res.SafetyLevels())
	for i := range res.Measurements {
		fmt.Fprintln(&b, res.Above(i))
	}
	return b.String()
}

// TestSpaceMatchesFreshEnumeration is the differential test of the
// per-space cache: on every shipped space, a Space that has already
// served a run (its order built, its hashes remembered) answers keys,
// hashes, DOT, levels and Above exactly as a fresh enumeration does,
// for the whole space and for a shard of it.
func TestSpaceMatchesFreshEnumeration(t *testing.T) {
	cached := exploretest.ShippedSpaces()
	fresh := exploretest.ShippedSpaces()
	names := make([]string, 0, len(cached))
	for name := range cached {
		names = append(names, name)
	}
	sort.Strings(names)
	shard := explore.Shard{Index: 1, Count: 3}
	for _, name := range names {
		sp := explore.NewSpace(cached[name])
		cfgs := fresh[name]
		first := spaceRun(t, sp, explore.Shard{})
		firstShard := spaceRun(t, sp, shard)
		for _, ns := range []string{"", "w", "redis-get90/240"} {
			if got, want := sp.Hash(ns), referenceSpaceHash(ns, cfgs); got != want {
				t.Fatalf("%s: Hash(%q) = %s, fresh %s", name, ns, got, want)
			}
		}
		if sp.Len() != len(cfgs) {
			t.Fatalf("%s: %d configurations, fresh %d", name, sp.Len(), len(cfgs))
		}
		for i, c := range cfgs {
			if got := sp.Configs()[i]; sp.Key(i) != c.Key() || got.ID != c.ID || got.Label() != c.Label() {
				t.Fatalf("%s: configuration %d is %d %q %q, fresh %d %q %q",
					name, i, got.ID, sp.Key(i), got.Label(), c.ID, c.Key(), c.Label())
			}
		}
		want := spaceRun(t, explore.NewSpace(cfgs), explore.Shard{})
		if again := spaceRun(t, sp, explore.Shard{}); first != want || again != want {
			t.Fatalf("%s: a run over the cached Space differs from one over a fresh enumeration", name)
		}
		// The shard's slice, enumerated on its own: a shard orders its
		// members among themselves.
		lo, hi := shard.Index*len(cfgs)/shard.Count, (shard.Index+1)*len(cfgs)/shard.Count
		if wantShard := spaceRun(t, explore.NewSpace(cfgs[lo:hi]), explore.Shard{}); firstShard != wantShard {
			t.Fatalf("%s: shard %s over the cached Space differs from a fresh enumeration of its slice", name, shard)
		}
	}
}

// referenceLabel is Config.Label as it was written before it rendered
// into one builder.
func referenceLabel(c *explore.Config) string {
	var blocks []string
	for _, blk := range c.Blocks {
		blocks = append(blocks, strings.Join(blk, "+"))
	}
	var hardened []string
	for _, comp := range c.Components() {
		if !c.Hardening[comp].Empty() {
			hardened = append(hardened, comp)
		}
	}
	s := strings.Join(blocks, " / ")
	if len(hardened) > 0 {
		s += " h={" + strings.Join(hardened, ",") + "}"
	}
	if c.ASLR.Enabled() {
		s += " aslr=" + c.ASLR.String()
	}
	if c.Profile != "" {
		s += " @" + c.Profile
	}
	return s
}

// TestLabelMatchesReference checks Label against its earlier form on
// every configuration of every shipped space and of random spaces.
func TestLabelMatchesReference(t *testing.T) {
	spaces := exploretest.ShippedSpaces()
	for seed := int64(0); seed < 4; seed++ {
		spaces[fmt.Sprintf("random-%d", seed)] = exploretest.RandomAttackSpace(rand.New(rand.NewSource(seed)), 200)
	}
	for name, cfgs := range spaces {
		for _, c := range cfgs {
			if got, want := c.Label(), referenceLabel(c); got != want {
				t.Fatalf("%s: Label %q, reference %q", name, got, want)
			}
		}
	}
}

// TestNilSpaceIsEmpty: a request that names no space explores the
// empty one.
func TestNilSpaceIsEmpty(t *testing.T) {
	res, err := explore.Engine{}.Run(context.Background(), explore.Request{Measure: keyMeasure})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 0 || !reflect.DeepEqual(res.Safest, []int(nil)) {
		t.Fatalf("empty run: total %d, safest %v", res.Total, res.Safest)
	}
}
