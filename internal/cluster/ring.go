// Package cluster turns N flexos-serve daemons into one logical
// exploration engine: a coordinator splits each request into disjoint
// shard sub-requests, routes every sub-request to a worker chosen by
// consistent hashing over its canonical key, collects the workers'
// partial-result records, and replays them into its own memo before
// re-ranking locally — so the answer is byte-identical to a
// single-node run at any worker count, any fan-out, and under any
// worker failure (a lost shard degrades to re-dispatch or local
// measurement, which by determinism produces the same bytes).
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// replicas is the virtual-node count per member: enough that a 3-node
// ring splits keys within a few percent of evenly, cheap enough that
// ring rebuilds are negligible next to a measurement.
const replicas = 64

// Ring is a consistent-hash ring over member names (worker base
// URLs). Each member occupies `replicas` pseudo-random points on a
// 64-bit circle; a key is owned by the member whose point follows the
// key's hash. Adding or removing one member moves only the keys in
// its arcs — every other key keeps its owner, which is what keeps
// fleet-wide request coalescing effective across membership churn
// (same sub-request → same worker → same single flight).
//
// A Ring is immutable; Membership rebuilds one when the live set
// changes.
type Ring struct {
	points  []ringPoint
	members []string
}

type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// NewRing builds a ring over the members (order-insensitive: the ring
// depends only on the set).
func NewRing(members []string) *Ring {
	r := &Ring{members: append([]string(nil), members...)}
	sort.Strings(r.members)
	r.points = make([]ringPoint, 0, len(r.members)*replicas)
	for i, m := range r.members {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:   ringHash(m + "#" + strconv.Itoa(v)),
				member: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (vanishingly rare) break on member index so the ring
		// is deterministic regardless of input order.
		return r.points[a].member < r.points[b].member
	})
	return r
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// start returns the index of the first ring point at or after the
// key's hash (wrapping to 0).
func (r *Ring) start(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the member owning the key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.members[r.points[r.start(key)].member]
}

// Sequence returns every member exactly once, in ring-walk order from
// the key's position: the owner first, then the successors a failed
// dispatch falls over to. Deterministic for a given (ring, key).
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	seq := make([]string, 0, len(r.members))
	seen := make(map[int32]struct{}, len(r.members))
	for i, n := r.start(key), 0; n < len(r.points); i, n = (i+1)%len(r.points), n+1 {
		p := r.points[i]
		if _, dup := seen[p.member]; dup {
			continue
		}
		seen[p.member] = struct{}{}
		seq = append(seq, r.members[p.member])
		if len(seq) == len(r.members) {
			break
		}
	}
	return seq
}
