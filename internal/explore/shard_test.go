package explore

import (
	"sync"
	"testing"
)

// White-box unit tests for shard arithmetic and the memo's protocol
// over its backing. The engine-level shard/backing properties (a
// sharded run matches the manual subslice; sharded backings warm-start
// a full run) live in shard_property_test.go on the exploretest
// harness.

// TestShardSliceProperties is the partition law: for every space size
// and shard count, the shards are contiguous, order-preserving,
// pairwise disjoint, balanced to within one element, and their
// concatenation is exactly the full space.
func TestShardSliceProperties(t *testing.T) {
	for n := 0; n <= 13; n++ {
		cfgs := Fig6Space([4]string{"app", "libc", "sched", "net"})[:n]
		space := NewSpace(cfgs)
		for count := 1; count <= 6; count++ {
			var union []*Config
			for idx := 0; idx < count; idx++ {
				sub, err := space.shard(Shard{Index: idx, Count: count})
				if err != nil {
					t.Fatalf("n=%d shard %d/%d: %v", n, idx, count, err)
				}
				part := sub.Configs()
				if lo, hi := (Shard{Index: idx, Count: count}).bounds(n); hi-lo != len(part) {
					t.Fatalf("n=%d shard %d/%d: bounds disagree with slice", n, idx, count)
				}
				if len(part) < n/count || len(part) > n/count+1 {
					t.Fatalf("n=%d shard %d/%d: unbalanced size %d", n, idx, count, len(part))
				}
				for i, c := range part {
					if sub.Key(i) != c.Key() {
						t.Fatalf("n=%d shard %d/%d: key %d is %q, want %q", n, idx, count, i, sub.Key(i), c.Key())
					}
				}
				union = append(union, part...)
			}
			if len(union) != n {
				t.Fatalf("n=%d count=%d: union has %d configs", n, count, len(union))
			}
			for i := range union {
				// Pointer identity: same element, same order — which also
				// proves pairwise disjointness.
				if union[i] != cfgs[i] {
					t.Fatalf("n=%d count=%d: union out of order at %d", n, count, i)
				}
			}
		}
	}
}

func TestShardValidation(t *testing.T) {
	space := NewSpace(Fig6Space([4]string{"app", "libc", "sched", "net"}))
	for _, bad := range []Shard{{Index: -1, Count: 3}, {Index: 3, Count: 3}, {Index: 0, Count: -1}, {Index: 2, Count: 0}} {
		if _, err := space.shard(bad); err == nil {
			t.Errorf("shard %+v: want error, got nil", bad)
		}
	}
	for _, ok := range []Shard{{}, {Index: 0, Count: 1}, {Index: 4, Count: 5}} {
		if _, err := space.shard(ok); err != nil {
			t.Errorf("shard %+v: %v", ok, err)
		}
	}
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Shard
		ok   bool
	}{
		{"0/4", Shard{0, 4}, true},
		{"3/4", Shard{3, 4}, true},
		{"0/1", Shard{0, 1}, true},
		{" 1 / 3 ", Shard{1, 3}, true},
		{"4/4", Shard{}, false},
		{"-1/4", Shard{}, false},
		{"0/0", Shard{}, false},
		{"2", Shard{}, false},
		{"a/b", Shard{}, false},
		{"", Shard{}, false},
	} {
		got, err := ParseShard(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseShard(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseShard(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// countingBacking is the minimal in-memory Backing double the white-box
// memo test needs (the full engine-level double, with key logs and
// snapshot/merge accessors, is exploretest.MapBacking — unusable here
// because in-package test files cannot import a package that imports
// the package under test).
type countingBacking struct {
	mu     sync.Mutex
	m      map[string]Metrics
	loads  int
	stores int
}

func (b *countingBacking) Load(key string) (Metrics, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	m, ok := b.m[key]
	return m, ok
}

func (b *countingBacking) Store(key string, m Metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stores++
	b.m[key] = m
}

// TestBackedMemoLoadAndWriteThrough: the backing is the memo's only
// record tier. A fresh measurement writes through once, every later
// lookup of the finished key reads the backing (a hit, never a second
// measurement or write), a fresh memo over the same backing starts
// warm, and Len returns to 0 once nothing is in flight.
func TestBackedMemoLoadAndWriteThrough(t *testing.T) {
	b := &countingBacking{m: make(map[string]Metrics)}
	memo := NewBackedMemo(b)
	calls := 0
	f := func() (Metrics, error) { calls++; return Metrics{Throughput: 42}, nil }

	if _, hit, _ := memo.do("k", f); hit {
		t.Fatal("first call must miss")
	}
	if calls != 1 || b.stores != 1 {
		t.Fatalf("calls=%d stores=%d, want 1/1 (write-through)", calls, b.stores)
	}
	if n := memo.Len(); n != 0 {
		t.Fatalf("Len()=%d after the measurement finished, want 0", n)
	}
	for _, m := range []*Memo{memo, NewBackedMemo(b), memo} {
		loads := b.loads
		mx, hit, err := m.do("k", f)
		if err != nil || !hit || mx.Throughput != 42 {
			t.Fatalf("finished key: mx=%v hit=%v err=%v", mx, hit, err)
		}
		if b.loads != loads+1 {
			t.Fatalf("a lookup of a finished key made %d backing loads, want 1", b.loads-loads)
		}
		if n := m.Len(); n != 0 {
			t.Fatalf("Len()=%d after a hit, want 0", n)
		}
	}
	if calls != 1 || b.stores != 1 {
		t.Fatalf("hits must not re-measure or re-store (calls=%d stores=%d)", calls, b.stores)
	}
}

// TestSpaceHashIdentity: the hash is stable, namespace-sensitive and
// space-sensitive, and indifferent to sharding (shards slice the space
// after identity is taken).
func TestSpaceHashIdentity(t *testing.T) {
	a := Fig6Space([4]string{"app", "libc", "sched", "net"})
	b := Fig6Space([4]string{"app2", "libc", "sched", "net"})
	hash := func(w string, cfgs []*Config) string { return NewSpace(cfgs).Hash(w) }
	if hash("w", a) != hash("w", a) {
		t.Fatal("hash not stable")
	}
	if hash("w", a) == hash("w2", a) {
		t.Fatal("hash ignores the namespace")
	}
	if hash("w", a) == hash("w", b) {
		t.Fatal("hash ignores the space")
	}
	if hash("w", a) == hash("w", a[:40]) {
		t.Fatal("hash ignores the space length")
	}
	if len(hash("w", a)) != 16 {
		t.Fatalf("hash %q: want 16 hex digits", hash("w", a))
	}
}
