package core

import (
	"fmt"
	"sync"
	"testing"

	"flexos/internal/isolation"
)

// TestSymbolConcurrent interns pairs from eight goroutines while each
// builds images and calls through them, as exploration workers do. Every
// distinct pair must get one Sym, the same from every goroutine, and
// every call must resolve.
func TestSymbolConcurrent(t *testing.T) {
	const workers, rounds, shared = 8, 40, 5
	syms := make([][]Sym, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				// One pair only this worker names, one every worker does.
				own := Symbol(fmt.Sprintf("lib-%d", w), fmt.Sprintf("fn-%d", r%shared))
				common := Symbol("common", fmt.Sprintf("fn-%d", r%shared))
				syms[w] = append(syms[w], own, common)
				if lib, fn := own.Name(); lib != fmt.Sprintf("lib-%d", w) || fn != fmt.Sprintf("fn-%d", r%shared) {
					errs <- fmt.Errorf("worker %d: Sym %d names %s.%s", w, own, lib, fn)
					return
				}
				img, err := Build(testCatalog(t), twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS))
				if err != nil {
					errs <- err
					return
				}
				ctx, err := img.NewContext("t", "app")
				if err != nil {
					errs <- err
					return
				}
				if out, err := ctx.Call(symMain, Args{}); err != nil || out.S != "pong" {
					errs <- fmt.Errorf("worker %d: call returned %+v, %v", w, out, err)
					return
				}
				if _, err := ctx.Call(own, Args{}); err == nil {
					errs <- fmt.Errorf("worker %d: a pair no image holds resolved", w)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every worker saw the same Sym for each common pair, and distinct
	// pairs got distinct Syms.
	distinct := make(map[Sym]bool)
	for w := range workers {
		for i, s := range syms[w] {
			if i%2 == 1 && s != syms[0][i] {
				t.Fatalf("worker %d interned common pair %d as %d, worker 0 as %d", w, i/2, s, syms[0][i])
			}
			distinct[s] = true
		}
	}
	if want := workers*shared + shared; len(distinct) != want {
		t.Fatalf("%d distinct Syms, want %d", len(distinct), want)
	}
}
