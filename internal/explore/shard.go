package explore

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard selects one deterministic slice of a configuration space for
// distributed exploration: the Index-th of Count contiguous,
// order-preserving, pairwise-disjoint partitions of the canonical
// enumeration. Partition bounds depend only on the space length and
// Count — never on measurement outcomes — so the union of all Count
// shards is exactly the full space, shard sizes differ by at most one,
// and every worker slicing the same space agrees on who owns what.
//
// The zero value (Count 0) means "no sharding": the whole space.
// Count 1 is equivalent.
type Shard struct {
	Index, Count int
}

// IsZero reports whether the shard selects the whole space.
func (s Shard) IsZero() bool { return s.Count == 0 || (s.Count == 1 && s.Index == 0) }

// String renders the shard as "index/count" ("" for the whole space).
func (s Shard) String() string {
	if s.IsZero() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// validate reports whether the shard coordinates are coherent.
func (s Shard) validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil
	}
	if s.Count < 1 {
		return fmt.Errorf("explore: shard count %d out of range (want >= 1)", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("explore: shard index %d out of range [0,%d)", s.Index, s.Count)
	}
	return nil
}

// bounds returns the half-open [lo,hi) slice of an n-element space the
// shard owns: the standard balanced contiguous partition, where the
// first n%Count shards hold one extra element.
func (s Shard) bounds(n int) (lo, hi int) {
	if s.IsZero() {
		return 0, n
	}
	return s.Index * n / s.Count, (s.Index + 1) * n / s.Count
}

// Size returns the number of configurations the shard selects from an
// n-element space (0 for incoherent shard coordinates, which Run
// rejects anyway).
func (s Shard) Size(n int) int {
	if s.validate() != nil {
		return 0
	}
	lo, hi := s.bounds(n)
	return hi - lo
}

// ParseShard parses the CLI shard syntax "index/count" with
// 0 <= index < count (e.g. "0/4" … "3/4").
func ParseShard(s string) (Shard, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return Shard{}, fmt.Errorf("explore: shard %q: want index/count, e.g. 0/4", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(s[:i]))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(s[i+1:]))
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("explore: shard %q: want index/count, e.g. 0/4", s)
	}
	if cnt < 1 {
		// The CLI syntax always names an explicit count; "0/0" (the
		// zero value validate() accepts as "whole space") is a typo
		// here, not a request.
		return Shard{}, fmt.Errorf("explore: shard %q: count must be >= 1", s)
	}
	sh := Shard{Index: idx, Count: cnt}
	if err := sh.validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}
