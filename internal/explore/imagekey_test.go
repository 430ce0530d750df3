package explore_test

import (
	"fmt"
	"reflect"
	"testing"

	"flexos/internal/attack"
	"flexos/internal/explore"
	"flexos/internal/isolation"
	"flexos/internal/oslib"
	"flexos/internal/scenario"
)

// shippedSpaces returns every configuration space the front-ends
// build: Figure 6 for Redis, Nginx and every library scenario's
// quadruple, the cross-application space, the attack spaces on both
// machine profiles (swept and pinned), and the -aslr/-profile stamped
// spaces.
func shippedSpaces() map[string][]*explore.Config {
	redis := [4]string{"libredis", "newlib", "uksched", "lwip"}
	nginx := [4]string{"libnginx", "newlib", "uksched", "lwip"}
	out := map[string][]*explore.Config{
		"fig6/redis": explore.Fig6Space(redis),
		"fig6/nginx": explore.Fig6Space(nginx),
		"cross":      explore.CrossAppSpace(nil, redis, nginx),
		"cross/keyed": explore.CrossAppSpace(
			[]string{"intel-mpk", "vm-ept", "cheri", "intel-sgx"}, redis, nginx),
	}
	for _, sc := range scenario.All() {
		if quad, ok := sc.Quad(); ok {
			out["fig6/"+sc.Name()] = explore.Fig6Space(quad)
		}
	}
	base := explore.Fig6Space(redis)
	for _, profile := range []string{"", "riscv"} {
		for _, att := range attack.All() {
			out[fmt.Sprintf("attack/%s@%s", att.Name(), profile)] =
				attack.Space(base, attack.Spec{Scenario: att.Name(), Profile: profile})
		}
		out["attack/pinned@"+profile] = attack.Space(base, attack.Spec{
			Scenario: "combined", Profile: profile,
			ASLR: isolation.ASLR{EntropyBits: 16, LeakResistant: true}, PinASLR: true,
		})
		out["stamp/profile@"+profile] = attack.Stamp(base, profile, isolation.ASLR{}, false)
		for _, a := range attack.Ladder {
			out[fmt.Sprintf("stamp/aslr=%s@%s", a, profile)] = attack.Stamp(base, profile, a, true)
		}
	}
	return out
}

// TestImageKeyIdentifiesSpec pins Config.ImageKey as the identity of
// the built image over the union of every shipped space: equal image
// keys build reflect.DeepEqual specs, unequal specs have unequal image
// keys, and the image key is the full Key whenever ASLR is off. It is
// what lets attack.Measure simulate each image once for all its ASLR
// siblings.
func TestImageKeyIdentifiesSpec(t *testing.T) {
	tcb := []string{oslib.BootName, oslib.MMName}
	byKey := map[string]*explore.Config{}  // image key -> first config
	bySpec := map[string]*explore.Config{} // rendered spec -> first config
	for name, cfgs := range shippedSpaces() {
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
