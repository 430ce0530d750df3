package explore_test

import (
	"context"
	"reflect"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/isolation"
	"flexos/internal/synth"
)

// Delta re-exploration property: after a space edit (configurations
// removed, added, and retuned), a DeltaOnly run over the edited space
// re-measures exactly the configurations whose canonical key the store
// has never seen — no more, no less, asserted through the backing's
// store log — and the merged store then warm-starts a full run whose
// report equals the cold run over the edited space.

// keySet folds a MapBacking's store log into a set.
func keySet(keys []string) map[string]bool {
	s := make(map[string]bool, len(keys))
	for _, k := range keys {
		s[k] = true
	}
	return s
}

func TestDeltaRunRemeasuresExactlyTheEditedKeys(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		measure := synth.Measure(seed)
		v1 := synth.Space(seed, 200)

		run := func(space []*explore.Config, memo *explore.Memo, delta bool) *explore.Result {
			t.Helper()
			res, err := explore.Engine{}.Run(context.Background(), explore.Request{
				Space: explore.NewSpace(space), Measure: measure, Workers: 4, Memo: memo, DeltaOnly: delta,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res
		}

		b1 := exploretest.NewMapBacking()
		run(exploretest.CopySpace(v1), explore.NewBackedMemo(b1), false)
		v1Keys := keySet(b1.StoredKeys())

		// The edit: drop every 7th configuration, extend the space with
		// the next 60 points of the generator (Space(seed, m) is a prefix
		// of Space(seed, n), so these are genuinely new configurations),
		// and retune every 11th multi-compartment survivor by flipping its
		// gate mode (gate is part of the canonical key, so a retuned copy
		// is a changed point, not a twin).
		var v2 []*explore.Config
		for i, c := range v1 {
			if i%7 == 0 {
				continue
			}
			v2 = append(v2, c)
		}
		v2 = append(v2, synth.Space(seed, 260)[200:260]...)
		retuned := 0
		for i, c := range v1 {
			if i%11 != 0 || i%7 == 0 || c.NumCompartments() == 1 {
				continue
			}
			cc := *c
			if cc.GateMode == isolation.GateLight {
				cc.GateMode = isolation.GateFull
			} else {
				cc.GateMode = isolation.GateLight
			}
			v2 = append(v2, &cc)
			retuned++
		}
		if retuned == 0 {
			t.Fatalf("seed %d: the edit retuned nothing; the mutation schedule is broken", seed)
		}

		// Ground truth for "what changed": a cold run of the edited space
		// into a fresh backing stores every V2 key once; the edited keys
		// are those V1 never stored.
		b2 := exploretest.NewMapBacking()
		cold := run(exploretest.CopySpace(v2), explore.NewBackedMemo(b2), false)
		v2Keys := b2.StoredKeys()
		wantNew := make(map[string]bool)
		for _, k := range v2Keys {
			if !v1Keys[k] {
				wantNew[k] = true
			}
		}
		if len(wantNew) == 0 || len(wantNew) == len(v2Keys) {
			t.Fatalf("seed %d: degenerate edit (%d of %d keys new)", seed, len(wantNew), len(v2Keys))
		}

		// The delta run over the V1 store: exactly the edited keys are
		// measured and stored, everything else is skipped unread.
		before := keySet(b1.StoredKeys())
		res := run(exploretest.CopySpace(v2), explore.NewBackedMemo(b1), true)
		stored := make(map[string]bool)
		for _, k := range b1.StoredKeys() {
			if !before[k] {
				stored[k] = true
			}
		}
		if !reflect.DeepEqual(stored, wantNew) {
			t.Fatalf("seed %d: delta run stored %d keys, want the %d edited ones", seed, len(stored), len(wantNew))
		}
		if res.Evaluated != len(wantNew) {
			t.Fatalf("seed %d: delta run evaluated %d configs, want %d (the edited ones)", seed, res.Evaluated, len(wantNew))
		}
		if want := len(v2) - len(wantNew); res.Skipped != want {
			t.Fatalf("seed %d: delta run skipped %d configs, want %d (the unchanged ones)", seed, res.Skipped, want)
		}
		for i, m := range res.Measurements {
			if m.Evaluated && m.Metrics != cold.Measurements[i].Metrics {
				t.Fatalf("seed %d: delta-measured config %d diverges from the cold run", seed, i)
			}
		}

		// The merged store (V1 results + the delta) must warm-start a
		// full run of the edited space: nothing fresh, and a report equal
		// to the cold run's — the delta plus the store is the full rerun.
		warm := run(exploretest.CopySpace(v2), explore.NewBackedMemo(b1), false)
		if warm.Evaluated != 0 {
			t.Fatalf("seed %d: warm merged run measured %d fresh configs", seed, warm.Evaluated)
		}
		if !reflect.DeepEqual(warm.Safest, cold.Safest) {
			t.Fatalf("seed %d: merged safest %v, cold %v", seed, warm.Safest, cold.Safest)
		}
		for i := range cold.Measurements {
			a, b := warm.Measurements[i], cold.Measurements[i]
			if a.Perf != b.Perf || a.Metrics != b.Metrics || a.Evaluated != b.Evaluated || a.Pruned != b.Pruned {
				t.Fatalf("seed %d: merged measurement %d diverges from the cold run: %+v vs %+v", seed, i, a, b)
			}
		}
	}
}
