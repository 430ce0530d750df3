package synth

import (
	"testing"

	"flexos/internal/explore"
	"flexos/internal/poset"
)

// TestSpaceDeterministic: the same (seed, n) must yield the same space
// — same IDs, same canonical keys — on every call.
func TestSpaceDeterministic(t *testing.T) {
	a := Space(7, 3000)
	b := Space(7, 3000)
	if len(a) != 3000 || len(b) != 3000 {
		t.Fatalf("sizes %d, %d; want 3000", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != i || b[i].ID != i {
			t.Fatalf("IDs not dense at %d: %d, %d", i, a[i].ID, b[i].ID)
		}
		if a[i].Key() != b[i].Key() {
			t.Fatalf("key diverges at %d:\n%s\n%s", i, a[i].Key(), b[i].Key())
		}
	}
}

// TestSpacePrefixStable: Space(seed, m) is a prefix of Space(seed, n)
// for m <= n — what makes a shard of a small space meaningful in a
// memo shared with a larger one.
func TestSpacePrefixStable(t *testing.T) {
	big := Space(11, 2500)
	for _, m := range []int{1, 79, perApp, perApp + 1, 1200, 2500} {
		small := Space(11, m)
		if len(small) != m {
			t.Fatalf("Space(11, %d) has %d points", m, len(small))
		}
		for i := range small {
			if small[i].Key() != big[i].Key() {
				t.Fatalf("prefix property broken at n=%d i=%d", m, i)
			}
		}
	}
}

// TestSpaceValid: every generated configuration is structurally valid —
// non-empty blocks, unique components, canonical mechanism names — and
// distinct seeds yield distinct spaces.
func TestSpaceValid(t *testing.T) {
	cfgs := Space(3, 2000)
	for i, c := range cfgs {
		if len(c.Blocks) == 0 {
			t.Fatalf("config %d has no blocks", i)
		}
		seen := map[string]bool{}
		for _, blk := range c.Blocks {
			if len(blk) == 0 {
				t.Fatalf("config %d has an empty block", i)
			}
			for _, comp := range blk {
				if seen[comp] {
					t.Fatalf("config %d repeats component %s", i, comp)
				}
				seen[comp] = true
			}
		}
		switch c.Mechanism {
		case "intel-mpk", "vm-ept", "none":
		default:
			t.Fatalf("config %d has unexpected mechanism %q", i, c.Mechanism)
		}
	}
	other := Space(4, 2000)
	same := 0
	for i := range cfgs {
		if cfgs[i].Key() == other[i].Key() {
			same++
		}
	}
	if same == len(cfgs) {
		t.Fatal("seeds 3 and 4 generated identical spaces")
	}
}

// TestSpaceOrderSound runs the safety-order validator over one
// application group of a synthetic space: reflexive, antisymmetric up
// to key identity, transitive.
func TestSpaceOrderSound(t *testing.T) {
	cfgs := Space(5, perApp)
	p := poset.New(cfgs, explore.Leq)
	if err := p.CheckOrder(); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureDeterministicAndMonotone: the metric model is a pure
// function of (seed, config) and is safety-monotone — whenever a ≤ b
// in the safety order, b costs at least as much (throughput no higher,
// latency no lower).
func TestMeasureDeterministicAndMonotone(t *testing.T) {
	cfgs := Space(9, 2*perApp)
	m1, m2 := Measure(9), Measure(9)
	for _, c := range cfgs {
		a, err := m1(c)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := m2(c)
		if a != b {
			t.Fatalf("measure not deterministic for %s", c.Key())
		}
	}
	p := poset.New(cfgs, explore.Leq)
	mxs := make([]explore.Metrics, len(cfgs))
	for i, c := range cfgs {
		mxs[i], _ = m1(c)
	}
	for i := range cfgs {
		for j := range cfgs {
			if i != j && p.Leq(i, j) {
				if mxs[i].Throughput < mxs[j].Throughput {
					t.Fatalf("model not monotone: %d ≤ %d but throughput %v < %v",
						i, j, mxs[i].Throughput, mxs[j].Throughput)
				}
				if mxs[i].P99us > mxs[j].P99us {
					t.Fatalf("model not monotone: %d ≤ %d but p99 %v > %v",
						i, j, mxs[i].P99us, mxs[j].P99us)
				}
			}
		}
	}
}

// TestMedianThroughputSplitsSpace: the budget helper lands inside the
// modeled range so a budget at the median actually prunes part of the
// space and keeps part feasible.
func TestMedianThroughputSplitsSpace(t *testing.T) {
	cfgs := Space(42, 2000)
	med := MedianThroughput(42, cfgs)
	measure := Measure(42)
	above, below := 0, 0
	for _, c := range cfgs {
		mx, _ := measure(c)
		if mx.Throughput >= med {
			above++
		} else {
			below++
		}
	}
	if above == 0 || below == 0 {
		t.Fatalf("median budget does not split the space: %d above, %d below", above, below)
	}
}
