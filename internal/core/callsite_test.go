package core_test

import (
	"testing"

	"flexos"
	"flexos/internal/core"
	"flexos/internal/explore/exploretest"
)

// TestCallSiteTableMatchesPerCallResolution builds every image of the
// shipped spaces (exploretest.ShippedSpaces), each distinct image once,
// and checks that the call-site table Build fills resolves every
// caller compartment × library × function exactly as the per-call
// lookups did.
func TestCallSiteTableMatchesPerCallResolution(t *testing.T) {
	cat := flexos.FullCatalog()
	built := map[string]bool{} // image keys
	for name, cfgs := range exploretest.ShippedSpaces() {
		for _, c := range cfgs {
			if built[c.ImageKey()] {
				continue
			}
			built[c.ImageKey()] = true
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
