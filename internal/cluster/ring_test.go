package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("canonical-key-%d", i)
	}
	return out
}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	a := NewRing([]string{"http://w1", "http://w2", "http://w3"})
	b := NewRing([]string{"http://w3", "http://w1", "http://w2"})
	for _, k := range keys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q depends on member order: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingBalance(t *testing.T) {
	members := []string{"http://w1", "http://w2", "http://w3"}
	r := NewRing(members)
	counts := make(map[string]int)
	n := 3000
	for _, k := range keys(n) {
		counts[r.Owner(k)]++
	}
	for _, m := range members {
		// Virtual nodes keep the split within a loose factor of fair.
		if c := counts[m]; c < n/9 || c > n*2/3 {
			t.Fatalf("member %s owns %d of %d keys; ring badly unbalanced: %v", m, c, n, counts)
		}
	}
}

// TestRingStabilityUnderRemoval: removing one member must move only
// the keys it owned — consistent hashing's defining property, and
// what keeps fleet-wide coalescing warm across membership churn.
func TestRingStabilityUnderRemoval(t *testing.T) {
	full := NewRing([]string{"http://w1", "http://w2", "http://w3"})
	reduced := NewRing([]string{"http://w1", "http://w3"})
	for _, k := range keys(500) {
		before := full.Owner(k)
		after := reduced.Owner(k)
		if before != "http://w2" && after != before {
			t.Fatalf("key %q moved from surviving %q to %q when an unrelated member left", k, before, after)
		}
		if before == "http://w2" && after == "http://w2" {
			t.Fatalf("key %q still owned by the removed member", k)
		}
	}
}

func TestRingSequenceCoversAllMembersOnceOwnerFirst(t *testing.T) {
	members := []string{"http://w1", "http://w2", "http://w3", "http://w4"}
	r := NewRing(members)
	for _, k := range keys(100) {
		seq := r.Sequence(k)
		if len(seq) != len(members) {
			t.Fatalf("sequence for %q has %d members, want %d: %v", k, len(seq), len(members), seq)
		}
		if seq[0] != r.Owner(k) {
			t.Fatalf("sequence for %q starts at %q, owner is %q", k, seq[0], r.Owner(k))
		}
		seen := make(map[string]bool)
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("sequence for %q repeats %q: %v", k, m, seq)
			}
			seen[m] = true
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if r.Owner("k") != "" || r.Sequence("k") != nil || r.Len() != 0 {
		t.Fatal("empty ring must own nothing")
	}
}
