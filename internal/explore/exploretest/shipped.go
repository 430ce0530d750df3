package exploretest

import (
	"strings"

	"flexos/internal/attack"
	"flexos/internal/explore"
	"flexos/internal/isolation"
	"flexos/internal/scenario"
)

// ShippedSpaces returns every configuration space the front-ends
// build, by name: Figure 6 over Redis, Nginx and every library
// scenario's quadruple; the cross-application space over the default
// mechanisms and over all four keyed ones; the attack spaces on both
// machine profiles, swept along the ASLR ladder and pinned; and the
// -profile/-aslr stamped spaces. An attack space does not depend on
// which attacker scores it, so each is listed once. Every call
// enumerates fresh configurations.
func ShippedSpaces() map[string][]*explore.Config {
	redis := [4]string{"libredis", "newlib", "uksched", "lwip"}
	nginx := [4]string{"libnginx", "newlib", "uksched", "lwip"}
	out := map[string][]*explore.Config{
		"cross": explore.CrossAppSpace(nil, redis, nginx),
		"cross/keyed": explore.CrossAppSpace(
			[]string{"intel-mpk", "vm-ept", "cheri", "intel-sgx"}, redis, nginx),
	}
	quads := [][4]string{redis, nginx}
	for _, sc := range scenario.All() {
		if quad, ok := sc.Quad(); ok {
			quads = append(quads, quad)
		}
	}
	for _, quad := range quads {
		out["fig6/"+strings.Join(quad[:], ",")] = explore.Fig6Space(quad)
	}
	base := explore.Fig6Space(redis)
	for _, profile := range []string{"", "riscv"} {
		out["attack@"+profile] = attack.Space(base, attack.Spec{Scenario: "combined", Profile: profile})
		out["attack/pinned@"+profile] = attack.Space(base, attack.Spec{
			Scenario: "combined", Profile: profile,
			ASLR: isolation.ASLR{EntropyBits: 16, LeakResistant: true}, PinASLR: true,
		})
		if profile != "" {
			out["stamp/profile@"+profile] = attack.Stamp(base, profile, isolation.ASLR{}, false)
		}
		for _, a := range attack.Ladder {
			out["stamp/aslr="+a.String()+"@"+profile] = attack.Stamp(base, profile, a, true)
		}
	}
	return out
}
