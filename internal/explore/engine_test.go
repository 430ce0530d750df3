package explore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/poset"
	"flexos/internal/store"
)

// dump serializes everything observable about a Result, so determinism
// tests can compare runs byte for byte (poset structure included, via
// the DOT rendering).
func dump(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d evaluated=%d memohits=%d budget=%v safest=%v\n",
		r.Total, r.Evaluated, r.MemoHits, r.Budget, r.Safest)
	for i, m := range r.Measurements {
		fmt.Fprintf(&b, "%d id=%d perf=%v eval=%t pruned=%t cached=%t\n",
			i, m.Config.ID, m.Perf, m.Evaluated, m.Pruned, m.Cached)
	}
	b.WriteString(r.DOT("dump"))
	return b.String()
}

// shakyMeasure returns syntheticMeasure values but sleeps a
// config-dependent few microseconds first, shaking up completion order
// across workers so determinism is tested against real reordering.
func shakyMeasure(c *Config) (float64, error) {
	time.Sleep(time.Duration(c.ID%7) * time.Microsecond)
	return syntheticMeasure(c)
}

func TestEngineMatchesSequentialOracle(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	for _, prune := range []bool{false, true} {
		want, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
			Measure: lift(syntheticMeasure), Workers: 1, Prune: prune, Constraints: floor600})
		if err != nil {
			t.Fatal(err)
		}
		wantDump := dump(want)
		for _, workers := range []int{1, 4, 8} {
			got, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
				Measure: lift(shakyMeasure), Workers: workers, Prune: prune, Constraints: floor600})
			if err != nil {
				t.Fatal(err)
			}
			if gotDump := dump(got); gotDump != wantDump {
				t.Fatalf("prune=%t workers=%d diverged from sequential oracle:\n--- sequential\n%s\n--- parallel\n%s",
					prune, workers, wantDump, gotDump)
			}
		}
	}
}

func TestEngineDefaultWorkers(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	want, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(syntheticMeasure), Workers: 1, Prune: true, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(shakyMeasure), Prune: true, Constraints: floor600}) // Workers: 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if dump(got) != dump(want) {
		t.Fatal("default worker count diverged from sequential oracle")
	}
}

func TestEngineEmptySpace(t *testing.T) {
	res, err := Engine{}.Run(context.Background(), Request{Measure: lift(syntheticMeasure), Workers: 4, Prune: true, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 0 || res.Evaluated != 0 || len(res.Safest) != 0 {
		t.Fatalf("empty space result = %+v", res)
	}
}

func TestEngineMemoSecondRunIsFree(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	st := store.Memory()
	memo := NewBackedMemo(st)
	first, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(syntheticMeasure), Workers: 4, Memo: memo, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	if first.Evaluated != 80 || first.MemoHits != 0 {
		t.Fatalf("cold run: evaluated=%d hits=%d", first.Evaluated, first.MemoHits)
	}
	if st.Len() != 80 || memo.Len() != 0 {
		t.Fatalf("backing holds %d records and %d are in flight, want 80 and 0", st.Len(), memo.Len())
	}
	var wantDump string
	for _, workers := range []int{1, 4, 8} {
		second, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs), Measure: lift(func(c *Config) (float64, error) {
			t.Errorf("config %d measured despite warm memo", c.ID)
			return syntheticMeasure(c)
		}), Workers: workers, Memo: memo, Constraints: floor600})
		if err != nil {
			t.Fatal(err)
		}
		if second.Evaluated != 0 || second.MemoHits != 80 {
			t.Fatalf("warm run: evaluated=%d hits=%d", second.Evaluated, second.MemoHits)
		}
		// The warm result is still byte-identical across worker counts.
		if wantDump == "" {
			wantDump = dump(second)
		} else if d := dump(second); d != wantDump {
			t.Fatalf("warm run not deterministic across workers:\n%s\nvs\n%s", wantDump, d)
		}
		// And agrees with the cold run everywhere except Cached.
		if second.Measurements[0].Perf != first.Measurements[0].Perf {
			t.Fatal("warm run changed measured values")
		}
	}
}

func TestEngineMemoSharesPointsAcrossSpaces(t *testing.T) {
	// Fig5Space's all-unhardened point is the B partition of Fig6Space
	// with hardening mask 0 — the canonical "identical point across
	// spaces". A shared memo must measure it only once.
	memo := NewMemo()
	app, libcN, schedN, lwipN := fig6Comps[0], fig6Comps[1], fig6Comps[2], fig6Comps[3]
	if _, err := (Engine{}).Run(context.Background(), Request{Space: NewSpace(Fig6Space(fig6Comps)),
		Measure: lift(syntheticMeasure), Workers: 4, Memo: memo, Constraints: floor600}); err != nil {
		t.Fatal(err)
	}
	res, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(Fig5Space([]string{app, libcN, schedN}, []string{lwipN})),
		Measure: lift(syntheticMeasure), Workers: 4, Memo: memo, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHits < 1 {
		t.Fatalf("no cross-space memo hit: evaluated=%d hits=%d", res.Evaluated, res.MemoHits)
	}
	if res.Evaluated+res.MemoHits != res.Total {
		t.Fatalf("accounting broken: %d + %d != %d", res.Evaluated, res.MemoHits, res.Total)
	}
}

func TestEngineWorkloadNamespacesMemo(t *testing.T) {
	// The same space explored under two workloads must not share
	// measurements.
	memo := NewMemo()
	cfgs := Fig6Space(fig6Comps)
	if _, err := (Engine{}).Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(syntheticMeasure), Memo: memo, Workload: "redis", Constraints: floor600}); err != nil {
		t.Fatal(err)
	}
	res, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(syntheticMeasure), Memo: memo, Workload: "nginx", Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHits != 0 || res.Evaluated != 80 {
		t.Fatalf("workloads leaked into each other: evaluated=%d hits=%d", res.Evaluated, res.MemoHits)
	}
}

func TestEngineDeduplicatesIdenticalConfigs(t *testing.T) {
	// Append identical twins (fresh IDs, same content) to the space:
	// the engine must measure each distinct point once, no memo needed.
	cfgs := Fig6Space(fig6Comps)
	for i := 0; i < 3; i++ {
		twin := *cfgs[i]
		twin.ID = len(cfgs) + i
		cfgs = append(cfgs, &twin)
	}
	var calls atomic.Int64
	counting := func(c *Config) (float64, error) {
		calls.Add(1)
		return shakyMeasure(c)
	}
	var wantDump string
	for _, workers := range []int{1, 4, 8} {
		calls.Store(0)
		res, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
			Measure: lift(counting), Workers: workers, Constraints: floor600})
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 80 {
			t.Fatalf("workers=%d: %d measure calls, want 80", workers, calls.Load())
		}
		if res.Evaluated != 80 || res.MemoHits != 3 {
			t.Fatalf("workers=%d: evaluated=%d hits=%d", workers, res.Evaluated, res.MemoHits)
		}
		for i := 80; i < 83; i++ {
			m := res.Measurements[i]
			if !m.Cached || !m.Evaluated || m.Perf != res.Measurements[i-80].Perf {
				t.Fatalf("twin %d not filled from canonical: %+v", i, m)
			}
		}
		if wantDump == "" {
			wantDump = dump(res)
		} else if d := dump(res); d != wantDump {
			t.Fatalf("duplicate handling not deterministic across workers")
		}
	}
}

func TestEngineErrorIsStableAcrossWorkers(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	boom := fmt.Errorf("machine on fire")
	failing := func(c *Config) (float64, error) {
		if c.ID == 37 {
			return 0, boom
		}
		return shakyMeasure(c)
	}
	var want string
	for _, workers := range []int{1, 4, 8} {
		_, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
			Measure: lift(failing), Workers: workers, Constraints: floor600})
		if err == nil {
			t.Fatalf("workers=%d: failure swallowed", workers)
		}
		if !strings.Contains(err.Error(), "config 37") || !strings.Contains(err.Error(), "machine on fire") {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: error not stable: %q vs %q", workers, err.Error(), want)
		}
	}
}

func TestEngineFailedMeasurementNotCached(t *testing.T) {
	st := store.Memory()
	memo := NewBackedMemo(st)
	cfgs := Fig6Space(fig6Comps)[:1]
	fail := true
	measure := func(c *Config) (float64, error) {
		if fail {
			return 0, fmt.Errorf("transient")
		}
		return syntheticMeasure(c)
	}
	if _, err := (Engine{}).Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(measure), Memo: memo, Constraints: floor600}); err == nil {
		t.Fatal("failure swallowed")
	}
	if _, ok := st.Load(MemoKey("", cfgs[0])); ok || memo.Len() != 0 {
		t.Fatalf("failed measurement stored (%v) or still in flight (%d)", ok, memo.Len())
	}
	fail = false
	res, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(measure), Memo: memo, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 1 {
		t.Fatal("retry after failure did not measure")
	}
}

// engineShape is one request shape per engine mode; tests that must
// hold in every mode range over engineShapes.
type engineShape struct {
	name string
	req  Request
}

// engineShapes returns the mode fields of every engine mode's request:
// the flat walk, the pruned walk, the branch-and-bound sweep (roomy and
// starving), seeded successive halving, and delta re-exploration. The
// caller fills in Space, Measure and Workers; memo backs the delta
// shape, whose absent keys are the ones it re-measures.
func engineShapes(memo *Memo) []engineShape {
	return []engineShape{
		{"flat", Request{}},
		{"pruned", Request{Constraints: floor600, Prune: true}},
		{"sweep", Request{Constraints: floor600, Prune: true, MeasureBudget: 40}},
		{"starved-sweep", Request{Constraints: floor600, Prune: true, MeasureBudget: 3}},
		{"halving", Request{Constraints: floor600, MeasureBudget: 20, Seed: 7}},
		{"delta", Request{DeltaOnly: true, Memo: memo, Workload: "w"}},
	}
}

// TestEngineProgressCoversEveryConfig pins the per-decision hook in
// every mode: each configuration is observed exactly once — measured,
// pruned, inherited or skipped by the wind-down. (Query.Progress, which
// counts these decisions, is tested at the query layer.)
func TestEngineProgressCoversEveryConfig(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	for _, workers := range []int{1, 4} {
		// Half the space is stored, so the delta shape skips it.
		memo := NewMemo()
		if _, err := (Engine{}).Run(context.Background(), Request{Space: NewSpace(cfgs[:len(cfgs)/2]),
			Measure: lift(syntheticMeasure), Memo: memo, Workload: "w"}); err != nil {
			t.Fatal(err)
		}
		for _, sh := range engineShapes(memo) {
			observed := make([]int, len(cfgs))
			req := sh.req
			req.Space, req.Measure, req.Workers = NewSpace(cfgs), lift(shakyMeasure), workers
			req.Observe = func(idx int, m *Measurement) { observed[idx]++ }
			if _, err := (Engine{}).Run(context.Background(), req); err != nil && !errors.Is(err, ErrNoFeasible) {
				t.Fatalf("%s: %v", sh.name, err)
			}
			for i, k := range observed {
				if k != 1 {
					t.Fatalf("%s workers=%d: config %d observed %d times", sh.name, workers, i, k)
				}
			}
		}
	}
}

func TestEnginePruningSavesOnCrossAppSpace(t *testing.T) {
	cfgs := CrossAppSpace(nil, fig6Comps, [4]string{"libnginx", "newlib", "uksched", "lwip"})
	if len(cfgs) != 320 {
		t.Fatalf("cross-app space = %d configs, want 320", len(cfgs))
	}
	for i, c := range cfgs {
		if c.ID != i {
			t.Fatalf("config %d has ID %d", i, c.ID)
		}
	}
	exhaustive, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(shakyMeasure), Workers: 8, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(shakyMeasure), Workers: 8, Prune: true, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Evaluated >= exhaustive.Evaluated {
		t.Fatalf("pruning saved nothing at scale: %d vs %d", pruned.Evaluated, exhaustive.Evaluated)
	}
	if fmt.Sprint(pruned.Safest) != fmt.Sprint(exhaustive.Safest) {
		t.Fatalf("pruning changed the stars: %v vs %v", pruned.Safest, exhaustive.Safest)
	}
	// And the whole pruned result matches the sequential oracle.
	want, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(syntheticMeasure), Workers: 1, Prune: true, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	if dump(pruned) != dump(want) {
		t.Fatal("cross-app parallel run diverged from sequential oracle")
	}
}

func TestCrossAppSpaceMechanismDeepensPoset(t *testing.T) {
	cfgs := CrossAppSpace([]string{"intel-mpk", "vm-ept"}, fig6Comps)
	if len(cfgs) != 160 {
		t.Fatalf("space = %d, want 160", len(cfgs))
	}
	// Point 0 (MPK, partition A, unhardened) sits strictly below point
	// 80 (EPT, same structure).
	if !Leq(cfgs[0], cfgs[80]) || Leq(cfgs[80], cfgs[0]) {
		t.Fatal("mpk config must sit strictly below its ept twin")
	}
	// Configurations of different applications are incomparable.
	other := CrossAppSpace([]string{"intel-mpk"}, [4]string{"libnginx", "newlib", "uksched", "lwip"})
	if Leq(cfgs[0], other[0]) || Leq(other[0], cfgs[0]) {
		t.Fatal("different applications must be incomparable")
	}
	if err := poset.New(cfgs[:48], Leq).CheckOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigKeyCanonicalization(t *testing.T) {
	base := &Config{
		Blocks:    [][]string{{"app", "libc"}, {"sched"}, {"net"}},
		Hardening: map[string]harden.Set{"net": harden.NewSet(harden.All)},
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
	}
	// Component order within a block and the order of non-default
	// blocks are irrelevant; mechanism aliases collapse.
	same := &Config{
		ID:        99,
		Blocks:    [][]string{{"libc", "app"}, {"net"}, {"sched"}},
		Hardening: map[string]harden.Set{"net": harden.NewSet(harden.All)},
		Mechanism: "mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
	}
	if base.Key() != same.Key() {
		t.Fatalf("canonically equal configs disagree:\n%s\n%s", base.Key(), same.Key())
	}
	// Moving a component into the default block is a different image.
	moved := &Config{
		Blocks:    [][]string{{"app", "libc", "sched"}, {"net"}},
		Hardening: map[string]harden.Set{"net": harden.NewSet(harden.All)},
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
	}
	if base.Key() == moved.Key() {
		t.Fatal("different partitions share a key")
	}
	// Hardening differences matter.
	hardened := &Config{
		Blocks:    [][]string{{"app", "libc"}, {"sched"}, {"net"}},
		Hardening: map[string]harden.Set{"net": harden.NewSet(harden.CFI)},
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
	}
	if base.Key() == hardened.Key() {
		t.Fatal("different hardening shares a key")
	}
	// Gate and sharing are neutralized on single-compartment images
	// (they build no gates at all)...
	solo1 := &Config{Blocks: [][]string{{"app"}}, Mechanism: "none", GateMode: isolation.GateLight, Sharing: isolation.ShareStack}
	solo2 := &Config{Blocks: [][]string{{"app"}}, Mechanism: "none", GateMode: isolation.GateFull, Sharing: isolation.ShareDSS}
	if solo1.Key() != solo2.Key() {
		t.Fatal("gate/sharing must not distinguish single-compartment images")
	}
	// ...but distinguish multi-compartment ones.
	duo1 := &Config{Blocks: [][]string{{"app"}, {"net"}}, Mechanism: "intel-mpk", GateMode: isolation.GateLight, Sharing: isolation.ShareStack}
	duo2 := &Config{Blocks: [][]string{{"app"}, {"net"}}, Mechanism: "intel-mpk", GateMode: isolation.GateFull, Sharing: isolation.ShareDSS}
	if duo1.Key() == duo2.Key() {
		t.Fatal("gate/sharing must distinguish multi-compartment images")
	}
}
