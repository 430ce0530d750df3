package core_test

import (
	"testing"

	"flexos"
	"flexos/internal/core"
)

// TestCallSiteTableMatchesPerCallResolution builds every image of the
// shipped spaces — Figure 6 for Redis and Nginx, the cross-application
// space over all four keyed mechanisms, and the attack space — and
// checks that the call-site table Build fills resolves every caller
// compartment × library × function exactly as the per-call lookups did.
func TestCallSiteTableMatchesPerCallResolution(t *testing.T) {
	att, ok := flexos.AttackByName("combined")
	if !ok {
		t.Fatal(`attack scenario "combined" missing`)
	}
	redis, nginx := flexos.RedisComponents(), flexos.NginxComponents()
	spaces := map[string][]*flexos.ExploreConfig{
		"fig6/redis": flexos.Fig6Space(redis),
		"fig6/nginx": flexos.Fig6Space(nginx),
		"cross": flexos.CrossAppSpace([]string{"intel-mpk", "vm-ept", "cheri", "intel-sgx"},
			redis, nginx),
		"attack": flexos.AttackSpace(flexos.Fig6Space(redis),
			flexos.AttackSpec{Scenario: att.Name(), Profile: "riscv"}),
	}
	cat := flexos.FullCatalog()
	for name, cfgs := range spaces {
		for _, c := range cfgs {
			img, err := core.Build(cat, c.Spec(flexos.TCBLibs()))
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.Key(), err)
			}
			diffs := core.DiffCallSites(img)
			for _, d := range diffs {
				t.Errorf("%s %s: %s", name, c.Key(), d)
			}
			if len(diffs) > 0 {
				t.FailNow()
			}
		}
	}
}
