package harden

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	s, err := Parse([]string{"cfi", "asan"})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has(CFI) || !s.Has(KASan) {
		t.Fatalf("parsed set %v missing cfi/kasan", s)
	}
	if s.Has(UBSan) || s.Has(StackProtector) {
		t.Fatal("parse enabled techniques not requested")
	}
	if _, err := Parse([]string{"rust"}); err == nil {
		t.Fatal("unknown hardening accepted")
	}
	// Case/space insensitive.
	if _, err := Parse([]string{" KASan "}); err != nil {
		t.Fatalf("case-insensitive parse failed: %v", err)
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("zero set should be empty")
	}
	if s.WorkMultiplier() != 1.0 {
		t.Fatalf("empty set multiplier = %v, want 1.0", s.WorkMultiplier())
	}
	if s.String() != "[]" {
		t.Fatalf("empty set String = %q", s.String())
	}
}

func TestWorkMultiplierGrowsWithTechs(t *testing.T) {
	var prev float64 = 1.0
	s := NewSet()
	for _, tech := range []Tech{StackProtector, CFI, UBSan, KASan} {
		s = s.With(tech)
		m := s.WorkMultiplier()
		if m <= prev {
			t.Fatalf("adding %v did not increase multiplier (%v -> %v)", tech, prev, m)
		}
		prev = m
	}
	// The full stack should land near 2x, matching the calibration notes.
	full := NewSet(KASan, UBSan, StackProtector).WorkMultiplier()
	if full < 1.8 || full > 2.6 {
		t.Fatalf("full-stack multiplier = %v, want ~2x", full)
	}
}

func TestSubset(t *testing.T) {
	a := NewSet(CFI)
	b := NewSet(CFI, KASan)
	if !a.Subset(b) || b.Subset(a) {
		t.Fatal("subset relation wrong")
	}
	if !a.Subset(a) {
		t.Fatal("subset must be reflexive")
	}
	c := NewSet(UBSan)
	if a.Subset(c) || c.Subset(a) {
		t.Fatal("disjoint sets must be incomparable")
	}
}

func TestUnionAndEqual(t *testing.T) {
	a := NewSet(CFI)
	b := NewSet(KASan)
	u := a.Union(b)
	if !u.Equal(NewSet(CFI, KASan)) {
		t.Fatal("union wrong")
	}
	if u.Count() != 2 {
		t.Fatalf("count = %d", u.Count())
	}
}

// Property: Subset is a partial order (reflexive, antisymmetric,
// transitive) on random sets.
func TestSubsetPartialOrderProperty(t *testing.T) {
	f := func(x, y, z uint8) bool {
		a, b, c := Set{mask: Tech(x) & All}, Set{mask: Tech(y) & All}, Set{mask: Tech(z) & All}
		if !a.Subset(a) {
			return false
		}
		if a.Subset(b) && b.Subset(a) && !a.Equal(b) {
			return false
		}
		if a.Subset(b) && b.Subset(c) && !a.Subset(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the multiplier is monotone along subset inclusion — stacking
// hardening never makes a compartment faster (assumption 3 of §5).
func TestMultiplierMonotoneProperty(t *testing.T) {
	f := func(x, y uint8) bool {
		a := Set{mask: Tech(x) & (All | CFI)}
		b := a.Union(Set{mask: Tech(y) & (All | CFI)})
		return a.WorkMultiplier() <= b.WorkMultiplier()+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckedAdd(t *testing.T) {
	ub := NewSet(UBSan)
	if _, err := ub.CheckedAdd(math.MaxInt64, 1); err == nil {
		t.Fatal("ubsan missed signed overflow")
	}
	if v, err := ub.CheckedAdd(2, 3); err != nil || v != 5 {
		t.Fatalf("CheckedAdd(2,3) = %d, %v", v, err)
	}
	// Without UBSan the overflow wraps silently, like -fno-sanitize.
	var plain Set
	if _, err := plain.CheckedAdd(math.MaxInt64, 1); err != nil {
		t.Fatal("unhardened add must not trap")
	}
}

func TestCheckedMul(t *testing.T) {
	ub := NewSet(UBSan)
	if _, err := ub.CheckedMul(math.MaxInt64/2, 3); err == nil {
		t.Fatal("ubsan missed multiply overflow")
	}
	if v, err := ub.CheckedMul(6, 7); err != nil || v != 42 {
		t.Fatalf("CheckedMul = %d, %v", v, err)
	}
}

func TestStringDeterministic(t *testing.T) {
	s := NewSet(KASan, CFI, StackProtector, UBSan)
	if s.String() != s.String() {
		t.Fatal("String must be deterministic")
	}
	if got := NewSet(CFI).String(); got != "[cfi]" {
		t.Fatalf("String = %q", got)
	}
}

// composeString is String as it was composed per call before the
// table: the enabled techniques' names, sorted, in brackets.
func composeString(s Set) string {
	if s.Empty() {
		return "[]"
	}
	var out []string
	if s.Has(CFI) {
		out = append(out, "cfi")
	}
	if s.Has(KASan) {
		out = append(out, "kasan")
	}
	if s.Has(UBSan) {
		out = append(out, "ubsan")
	}
	if s.Has(StackProtector) {
		out = append(out, "stackprotector")
	}
	if s.Has(ShadowStack) {
		out = append(out, "shadowstack")
	}
	sort.Strings(out)
	return "[" + strings.Join(out, ",") + "]"
}

// TestStringTableMatchesComposition holds String's table to the
// per-call composition for every mask a Set can hold, unknown bits
// included, and checks that String allocates nothing.
func TestStringTableMatchesComposition(t *testing.T) {
	for mask := range 256 {
		s := Set{mask: Tech(mask)}
		if got, want := s.String(), composeString(s); got != want {
			t.Errorf("mask %#x: String %q, composed %q", mask, got, want)
		}
	}
	s := NewSet(KASan, UBSan, StackProtector)
	if n := testing.AllocsPerRun(100, func() { _ = s.String() }); n != 0 {
		t.Errorf("String allocates %v times", n)
	}
}
