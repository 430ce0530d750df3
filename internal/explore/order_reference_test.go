package explore_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/poset"
)

// Differential tests for the safety order: explore.Leq and everything
// the engine derives from its grouped signature order (the DOT Hasse
// diagram, SafetyLevels, Safest, Result.Above) must agree with the
// flat poset of exploretest.ReferenceLeq, an independent field-by-field
// statement of the same relation.

// distinctShippedSpaces returns the shipped spaces in name order,
// dropping any space whose configuration keys repeat an earlier one's
// (several scenario quadruples and stamps enumerate the same
// points), since the order cannot tell them apart.
func distinctShippedSpaces() ([]string, [][]*explore.Config) {
	spaces := exploretest.ShippedSpaces()
	names := make([]string, 0, len(spaces))
	for name := range spaces {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := map[string]bool{}
	var outNames []string
	var out [][]*explore.Config
	for _, name := range names {
		var fp strings.Builder
		for _, c := range spaces[name] {
			fp.WriteString(c.Key())
			fp.WriteByte('\n')
		}
		if seen[fp.String()] {
			continue
		}
		seen[fp.String()] = true
		outNames = append(outNames, name)
		out = append(out, spaces[name])
	}
	return outNames, out
}

// TestLeqMatchesReferenceLeq compares the two statements of the order
// on every ordered pair of every shipped space and of random spaces
// over the full attack axis.
func TestLeqMatchesReferenceLeq(t *testing.T) {
	names, spaces := distinctShippedSpaces()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		names = append(names, fmt.Sprintf("random/%d", seed), fmt.Sprintf("random-attack/%d", seed))
		spaces = append(spaces, exploretest.RandomSpace(rng, 120), exploretest.RandomAttackSpace(rng, 120))
	}
	for k, cfgs := range spaces {
		for _, a := range cfgs {
			for _, b := range cfgs {
				if got, want := explore.Leq(a, b), exploretest.ReferenceLeq(a, b); got != want {
					t.Fatalf("%s: Leq(%s, %s) = %t, reference says %t", names[k], a.Key(), b.Key(), got, want)
				}
			}
		}
	}
}

// TestOrderMatchesFlatReferencePoset compares the engine's grouped
// order with the flat ReferenceLeq poset through every public view of
// it, on every shipped space of at most 320 points and on the swept
// attack space of each machine profile, "attack@" and "attack@riscv"
// (every attack scenario sweeps the same 960 points, so one distinct
// space remains per profile).
func TestOrderMatchesFlatReferencePoset(t *testing.T) {
	names, spaces := distinctShippedSpaces()
	swept := 0
	for k, cfgs := range spaces {
		if strings.HasPrefix(names[k], "attack@") {
			swept++
		} else if len(cfgs) > 320 {
			continue
		}
		measure := exploretest.VectorMeasure(rand.New(rand.NewSource(int64(k))))
		perfs := make([]float64, len(cfgs))
		for i, c := range cfgs {
			m, _ := measure(c)
			perfs[i] = m.Throughput
		}
		sort.Float64s(perfs)
		res, err := explore.Engine{}.Run(context.Background(), explore.Request{
			Space: explore.NewSpace(cfgs), Measure: measure, Workers: 2,
			Constraints: []explore.Constraint{explore.BudgetConstraint("throughput", perfs[len(perfs)/2])},
		})
		if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
			t.Fatalf("%s: %v", names[k], err)
		}
		flat := poset.New(cfgs, exploretest.ReferenceLeq)

		var wantEdges strings.Builder
		for _, e := range flat.Edges() {
			fmt.Fprintf(&wantEdges, "  n%d -> n%d;\n", e[0], e[1])
		}
		var gotEdges strings.Builder
		for _, line := range strings.SplitAfter(res.DOT(names[k]), "\n") {
			if strings.Contains(line, " -> ") {
				gotEdges.WriteString(line)
			}
		}
		if gotEdges.String() != wantEdges.String() {
			t.Fatalf("%s: DOT edges differ from the flat reference Hasse diagram", names[k])
		}
		if got, want := res.SafetyLevels(), flatLevels(flat); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SafetyLevels %v, flat reference %v", names[k], got, want)
		}
		wantSafest := flat.Maximal(poset.BitsetOf(len(cfgs), res.Feasible))
		sort.Ints(wantSafest)
		if !reflect.DeepEqual(res.Safest, wantSafest) {
			t.Fatalf("%s: Safest %v, flat reference %v", names[k], res.Safest, wantSafest)
		}
		for i := range cfgs {
			if got, want := res.Above(i), flat.Above(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Above(%d) = %v, flat reference %v", names[k], i, got, want)
			}
		}
	}
	if swept != 2 {
		t.Fatalf("compared %d swept attack spaces, want attack@ and attack@riscv", swept)
	}
}

// flatLevels grades a flat poset directly from its definition: an
// item's level is the length of the longest chain of strictly smaller
// items below it.
func flatLevels(p *poset.Poset[*explore.Config]) []int {
	n := p.Len()
	level := make([]int, n)
	graded := make([]bool, n)
	var grade func(j int) int
	grade = func(j int) int {
		if !graded[j] {
			for i := 0; i < n; i++ {
				if i != j && p.Leq(i, j) && !p.Leq(j, i) {
					level[j] = max(level[j], grade(i)+1)
				}
			}
			graded[j] = true
		}
		return level[j]
	}
	for j := range level {
		grade(j)
	}
	return level
}
