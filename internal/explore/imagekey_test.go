package explore_test

import (
	"fmt"
	"reflect"
	"testing"

	"flexos/internal/attack"
	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/oslib"
)

// TestImageKeyIdentifiesSpec pins Config.ImageKey as the identity of
// the built image over the union of every shipped space: equal image
// keys build reflect.DeepEqual specs, unequal specs have unequal image
// keys, and the image key is the full Key whenever ASLR is off. It is
// what lets attack.Measure simulate each image once for all its ASLR
// siblings.
func TestImageKeyIdentifiesSpec(t *testing.T) {
	tcb := oslib.TCB()
	byKey := map[string]*explore.Config{}  // image key -> first config
	bySpec := map[string]*explore.Config{} // rendered spec -> first config
	for name, cfgs := range exploretest.ShippedSpaces() {
		for _, c := range cfgs {
			ik := c.ImageKey()
			if !c.ASLR.Enabled() && ik != c.Key() {
				t.Fatalf("%s: ASLR-off config %d has image key %q != key %q", name, c.ID, ik, c.Key())
			}
			spec := c.Spec(tcb)
			if prev, ok := byKey[ik]; !ok {
				byKey[ik] = c
			} else if !reflect.DeepEqual(prev.Spec(tcb), spec) {
				t.Fatalf("%s: %s and %s share image key %q but build different specs",
					name, prev.Key(), c.Key(), ik)
			}
			// fmt renders maps in sorted key order, so the rendering
			// is a canonical fingerprint of the spec value.
			fp := fmt.Sprintf("%#v", spec)
			if prev, ok := bySpec[fp]; !ok {
				bySpec[fp] = c
			} else if pk := prev.ImageKey(); pk != ik {
				t.Fatalf("%s: %s and %s build equal specs under image keys %q and %q",
					name, prev.Key(), c.Key(), pk, ik)
			}
		}
	}
	if len(byKey) != len(bySpec) {
		t.Fatalf("%d image keys for %d distinct specs", len(byKey), len(bySpec))
	}
}

// TestAttackSpaceImageCount pins the saving the image key buys: the
// 960-point swept attack space builds 320 images, one per base point
// and control-flow variant, while every point keeps its own Key.
func TestAttackSpaceImageCount(t *testing.T) {
	base := explore.Fig6Space([4]string{"libredis", "newlib", "uksched", "lwip"})
	cfgs := attack.Space(base, attack.Spec{Scenario: "combined", Profile: "riscv"})
	keys, images := map[string]bool{}, map[string]bool{}
	for _, c := range cfgs {
		keys[c.Key()] = true
		images[c.ImageKey()] = true
	}
	if len(cfgs) != 960 || len(keys) != 960 || len(images) != 320 {
		t.Fatalf("attack space: %d configs, %d keys, %d images; want 960, 960, 320",
			len(cfgs), len(keys), len(images))
	}
}
