// Quickstart: build a FlexOS image from the paper's example
// configuration file, run a few Redis GET requests on it, and inspect
// the image report.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"flexos"
)

// config is the §3 example adapted to the shipped components: the
// network stack lives in its own MPK compartment with CFI and ASan
// hardening; everything else (including Redis) stays in the default
// compartment.
const config = `
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
    hardening: [cfi, asan]
libraries:
- libredis: comp1
- lwip: comp2
gate: full
sharing: dss
`

func main() {
	// 1. Parse the build-time safety configuration.
	cfg, err := flexos.ParseConfig(config)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Materialize it against the component catalog and build the
	// image — this is where abstract gates become MPK gates and the
	// DSS layout is instantiated.
	cat := flexos.FullCatalog()
	spec, err := flexos.SpecFromConfig(cfg, cat)
	if err != nil {
		log.Fatal(err)
	}
	img, err := flexos.Build(cat, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== image report ==")
	fmt.Print(img.Report().String())

	// 3. Run a workload: spawn a thread in Redis's compartment, preload
	// keys, inject requests, serve them.
	ctx, err := img.NewContext("main", flexos.LibRedis)
	if err != nil {
		log.Fatal(err)
	}
	sock, err := ctx.Call(flexos.Symbol(flexos.LibRedis, "setup"), flexos.Words(16))
	if err != nil {
		log.Fatal(err)
	}
	// Requests travel to the stack in the frame's byte slot, after the
	// socket descriptor in its first word.
	enqueue := flexos.Words(sock.W)
	for i := 0; i < 5; i++ {
		enqueue.B = fmt.Appendf(enqueue.B[:0], "GET key%d\r\n", i)
		if _, err := ctx.Call(flexos.Symbol(flexos.LibNet, "rx_enqueue"), enqueue); err != nil {
			log.Fatal(err)
		}
	}
	serveGet := flexos.Symbol(flexos.LibRedis, "serve_get")
	for i := 0; i < 5; i++ {
		hit, err := ctx.Call(serveGet, flexos.Args{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("request %d served, hit=%v\n", i, hit.Bool())
	}

	// 4. The simulated machine accounts every cycle: compute, gates,
	// copies.
	fmt.Printf("\nsimulated time: %.3f us, cross-compartment gate crossings: %d\n",
		img.Mach.Seconds()*1e6, img.Crossings())
}
