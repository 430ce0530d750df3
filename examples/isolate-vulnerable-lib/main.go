// Isolate-vulnerable-lib demonstrates the first §7 use case: "Quickly
// Isolate Exploitable Libraries". A third-party parser library has a
// vulnerability that lets an attacker read arbitrary memory (think of a
// decompression bug à la libopenjpg, the paper's own example). During
// the embargo window, FlexOS lets the operator rebuild the image with
// the parser in its own compartment in seconds.
//
// The example registers the vulnerable component through the public API,
// then builds the same system twice — without isolation and with the
// parser compartmentalized under MPK — and mounts the same exploit
// against both. Without isolation the secret leaks; with isolation the
// simulated MMU kills the access with a protection-key fault.
//
// Run with: go run ./examples/isolate-vulnerable-lib
package main

import (
	"fmt"
	"log"

	"flexos"
)

// buildCatalog assembles the system plus the vulnerable parser.
// The parser's "parse" function contains the bug: it dereferences an
// attacker-controlled pointer and returns the bytes it reads.
func buildCatalog() *flexos.Catalog {
	cat := flexos.FullCatalog()
	parser := &flexos.Component{Name: "libparser"}
	parser.AddFunc(&flexos.Func{
		Name: "parse", Work: 300, EntryPoint: true,
		Impl: func(ctx *flexos.Ctx, a *flexos.Args) (flexos.Ret, error) {
			// The "image header" smuggles a pointer in the first
			// argument word; the buggy parser reads through it — an
			// arbitrary-read primitive.
			evilPtr := uintptr(a.W[0])
			leak := make([]byte, 16)
			if err := ctx.Read(evilPtr, leak); err != nil {
				return flexos.Ret{}, err
			}
			return flexos.Ret{S: string(leak)}, nil
		},
	})
	if err := cat.Register(parser); err != nil {
		log.Fatal(err)
	}
	return cat
}

// exploit plants a secret in Redis's private heap and drives the parser
// bug at it.
func exploit(img *flexos.Image) (string, error) {
	ctx, err := img.NewContext("victim", flexos.LibRedis)
	if err != nil {
		return "", err
	}
	// The secret: a session key in the Redis compartment's heap.
	redisComp, _ := img.Comp(flexos.LibRedis)
	secretAddr, err := redisComp.Heap.Alloc(16)
	if err != nil {
		return "", err
	}
	if err := img.AS.Write(ctx.Thread().PKRU, secretAddr, []byte("SESSION-KEY-4242")); err != nil {
		return "", err
	}
	// The attacker triggers the parser with a crafted "file" whose
	// header points at the secret.
	out, err := ctx.Call(flexos.Symbol("libparser", "parse"), flexos.Words(uint64(secretAddr)))
	if err != nil {
		return "", err
	}
	return out.S, nil
}

func main() {
	allLibs := append(flexos.TCBLibs(),
		flexos.LibSched, flexos.LibC, flexos.LibNet, flexos.LibVFS,
		flexos.LibRamfs, flexos.LibTime, flexos.LibRedis, flexos.LibNginx,
		flexos.LibSQLite, flexos.LibIPerf)

	// Deployment 1: the status quo — everything in one protection
	// domain (a classic unikernel).
	flat := flexos.ImageSpec{
		Mechanism: "none",
		Comps: []flexos.CompSpec{{
			Name: "c0", Libs: append(append([]string{}, allLibs...), "libparser"),
		}},
	}
	img1, err := flexos.Build(buildCatalog(), flat)
	if err != nil {
		log.Fatal(err)
	}
	leak, err := exploit(img1)
	if err != nil {
		fmt.Println("no isolation: exploit failed:", err)
	} else {
		fmt.Printf("no isolation: exploit LEAKED the secret: %q\n", leak)
	}

	// Deployment 2: the embargo response — one configuration-file edit
	// later, the parser runs in its own MPK compartment with hardening.
	isolated := flexos.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  flexos.GateFull,
		Sharing:   flexos.ShareDSS,
		Comps: []flexos.CompSpec{
			{Name: "c0", Libs: allLibs},
			{Name: "quarantine", Libs: []string{"libparser"},
				Hardening: flexos.NewHardening(flexos.CFI, flexos.KASan)},
		},
	}
	img2, err := flexos.Build(buildCatalog(), isolated)
	if err != nil {
		log.Fatal(err)
	}
	leak, err = exploit(img2)
	if err != nil {
		fmt.Printf("MPK quarantine: exploit KILLED by the MMU: %v\n", err)
	} else {
		fmt.Printf("MPK quarantine: exploit leaked %q (should not happen!)\n", leak)
	}

	// The same one-line change swaps the mechanism entirely (e.g. when
	// an MPK-class vulnerability is disclosed, §7 "Quickly React to
	// Hardware Protections Breaking Down").
	isolated.Mechanism = "vm-ept"
	isolated.GateMode = flexos.GateDefault
	img3, err := flexos.Build(buildCatalog(), isolated)
	if err != nil {
		log.Fatal(err)
	}
	if _, err = exploit(img3); err != nil {
		fmt.Printf("EPT quarantine: exploit KILLED by the hypervisor: %v\n", err)
	}
}
