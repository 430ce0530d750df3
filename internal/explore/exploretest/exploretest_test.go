package exploretest_test

import (
	"math/rand"
	"reflect"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/poset"
)

// Self-tests for the oracle harness: the generators must be
// deterministic and honor the promises the oracle-equivalence tests
// lean on (safety-monotone measures above all), and the instrumented
// backing must account every load, hit and store.

func TestRandomSpaceDeterministic(t *testing.T) {
	a := exploretest.RandomSpace(rand.New(rand.NewSource(3)), 60)
	b := exploretest.RandomSpace(rand.New(rand.NewSource(3)), 60)
	if len(a) != 60 || len(b) != 60 {
		t.Fatalf("sizes %d, %d, want 60", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("config %d differs across identically seeded generators", i)
		}
	}
	c := exploretest.CopySpace(a)
	for i := range a {
		if c[i] == a[i] {
			t.Fatalf("CopySpace aliased config %d", i)
		}
		if c[i].Key() != a[i].Key() {
			t.Fatalf("CopySpace changed config %d", i)
		}
	}
}

// TestMonotoneMeasureIsSafetyMonotone: along every edge of the safety
// poset, more safety never means more modeled throughput — the
// assumption all pruning soundness oracles rest on.
func TestMonotoneMeasureIsSafetyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfgs := exploretest.RandomSpace(rng, 80)
	measure := exploretest.MonotoneMeasure(rng)
	perf := make([]float64, len(cfgs))
	for i, c := range cfgs {
		v, err := measure(c)
		if err != nil {
			t.Fatal(err)
		}
		perf[i] = v
		if v2, _ := measure(c); v2 != v {
			t.Fatalf("measure not deterministic for config %d", i)
		}
	}
	p := poset.New(cfgs, explore.Leq)
	edges := 0
	for _, e := range p.Edges() {
		// A covering edge (i, j) means i < j: j is the safer end, and
		// safety costs throughput.
		edges++
		if perf[e[0]] < perf[e[1]] {
			t.Fatalf("edge %d->%d: safer config measures faster (%.1f -> %.1f)", e[0], e[1], perf[e[0]], perf[e[1]])
		}
	}
	if edges == 0 {
		t.Fatal("poset has no edges; the space is degenerate")
	}
	// Lift embeds the scalar as the throughput dimension, untouched.
	lifted := exploretest.Lift(measure)
	mx, err := lifted(cfgs[0])
	if err != nil || mx.Throughput != perf[0] {
		t.Fatalf("Lift: got %v (%v), want throughput %.1f", mx, err, perf[0])
	}
}

func TestMapBackingAccounting(t *testing.T) {
	b := exploretest.NewMapBacking()
	if _, ok := b.Load("a"); ok {
		t.Fatal("empty backing reported a hit")
	}
	b.Store("a", explore.Metrics{Throughput: 1})
	b.Store("b", explore.Metrics{Throughput: 2})
	if _, ok := b.Load("a"); !ok {
		t.Fatal("stored key missed")
	}
	if b.Loads() != 2 || b.Hits() != 1 || b.Stores() != 2 || b.Len() != 2 {
		t.Fatalf("counters loads=%d hits=%d stores=%d len=%d, want 2/1/2/2", b.Loads(), b.Hits(), b.Stores(), b.Len())
	}
	if got := b.StoredKeys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("store log %v, want [a b]", got)
	}

	// The uncounted inspection surface: Get/Put/Snapshot/Delete move
	// data without touching counters or the store log.
	b.Put("c", explore.Metrics{Throughput: 3})
	if _, ok := b.Get("c"); !ok {
		t.Fatal("Put key missing")
	}
	snap := b.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d keys, want 3", len(snap))
	}
	snap["d"] = explore.Metrics{}
	if b.Len() != 3 {
		t.Fatal("snapshot aliases the backing")
	}
	b.Delete("c")
	if _, ok := b.Get("c"); ok {
		t.Fatal("deleted key still present")
	}
	if b.Loads() != 2 || b.Hits() != 1 || b.Stores() != 2 {
		t.Fatalf("inspection surface moved the counters: loads=%d hits=%d stores=%d", b.Loads(), b.Hits(), b.Stores())
	}
	if got := b.StoredKeys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("inspection surface moved the store log: %v", got)
	}
	b.ResetCounters()
	if b.Loads() != 0 || b.Hits() != 0 || b.Stores() != 0 || len(b.StoredKeys()) != 0 {
		t.Fatal("ResetCounters left residue")
	}
	if b.Len() != 2 {
		t.Fatal("ResetCounters dropped data")
	}
}
