package cli

import (
	"container/list"
	"strings"
	"sync"

	"flexos"
)

// SpaceCacheCap bounds the process-wide space cache. The largest
// shipped space, 960 configurations with their keys and safety order,
// holds about 1 MB of heap, and a serving mix names a handful of
// spaces; the cap keeps a daemon asked for every attack × profile ×
// ASLR variant to about 32 MB of them.
const SpaceCacheCap = 32

// SpaceCacheStats is a snapshot of the process-wide space cache:
// current entries, and lookups that found (hits) or built (misses) a
// space, and spaces dropped to stay within the cap (evictions).
type SpaceCacheStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// spaceCache is a bounded least-recently-used map from a space's
// shape (see fig6Space) to the Space built for it. Request.Build draws
// every space from the one process-wide instance, so a daemon, a
// cluster coordinator and its inline shard runs enumerate, key and
// order each distinct space once, however many requests name it.
type spaceCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // values are *spaceEntry
	lru     list.List                // front: most recently used
	stats   SpaceCacheStats
}

type spaceEntry struct {
	key   string
	space *flexos.ExploreSpace
}

var spaces = &spaceCache{entries: make(map[string]*list.Element)}

// get returns the cached Space for key, building it with build on a
// miss. The build runs under the lock: misses are first requests, and
// concurrent first requests for one space then build it once.
func (c *spaceCache) get(key string, build func() []*flexos.ExploreConfig) *flexos.ExploreSpace {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.lru.MoveToFront(e)
		return e.Value.(*spaceEntry).space
	}
	c.stats.Misses++
	sp := flexos.NewSpace(build())
	c.entries[key] = c.lru.PushFront(&spaceEntry{key: key, space: sp})
	if c.lru.Len() > SpaceCacheCap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*spaceEntry).key)
		c.stats.Evictions++
	}
	return sp
}

// SpaceCache snapshots the process-wide space cache's statistics.
func SpaceCache() SpaceCacheStats {
	spaces.mu.Lock()
	defer spaces.mu.Unlock()
	st := spaces.stats
	st.Entries = spaces.lru.Len()
	return st
}

// ResetSpaceCache drops every cached space and zeroes the statistics,
// so the next request for each space builds it anew.
func ResetSpaceCache() {
	spaces.mu.Lock()
	defer spaces.mu.Unlock()
	clear(spaces.entries)
	spaces.lru.Init()
	spaces.stats = SpaceCacheStats{}
}

// fig6Space returns the Figure 6 space over quad with the attack axes
// of spec applied: expanded along the ASLR ladder and control-flow
// variants under an attack scenario, stamped with the profile and
// pinned ASLR level otherwise. The cache key holds exactly what the
// configurations depend on: the quad, whether an attack expands the
// space (attack.Space reads the profile and the pin, not the
// scenario), the profile and the pinned level.
func fig6Space(quad [4]string, spec flexos.AttackSpec) *flexos.ExploreSpace {
	key := "fig6=" + strings.Join(quad[:], ",")
	if spec.Scenario != "" {
		key += ";attack"
	}
	if spec.Profile != "" {
		key += ";profile=" + spec.Profile
	}
	if spec.PinASLR {
		key += ";aslr=" + spec.ASLR.String()
	}
	return spaces.get(key, func() []*flexos.ExploreConfig {
		space := flexos.Fig6Space(quad)
		if spec.Scenario != "" {
			return flexos.AttackSpace(space, spec)
		}
		return flexos.StampSpace(space, spec.Profile, spec.ASLR, spec.PinASLR)
	})
}

// crossSpace returns the cross-application space of the -app cross
// benchmark.
func crossSpace() *flexos.ExploreSpace {
	return spaces.get("cross", func() []*flexos.ExploreConfig {
		return flexos.CrossAppSpace(nil, flexos.RedisComponents(), flexos.NginxComponents())
	})
}
