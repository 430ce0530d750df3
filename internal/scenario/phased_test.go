package scenario

import (
	"strings"
	"testing"
)

func TestParsePhasedCanonicalName(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"redis-get90+redis-get50", "redis-get90+redis-get50"},
		{"redis-get90*3+redis-get50", "redis-get90*3+redis-get50"},
		{" redis-get90 * 3 + redis-get50 * 1 ", "redis-get90*3+redis-get50"},
		{"redis-get90*1", "redis-get90"},
		{"nginx-static*2+nginx-keepalive*2", "nginx-static*2+nginx-keepalive*2"},
	}
	for _, c := range cases {
		p, err := ParsePhased(c.spec)
		if err != nil {
			t.Fatalf("ParsePhased(%q): %v", c.spec, err)
		}
		if got := p.Name(); got != c.want {
			t.Errorf("ParsePhased(%q).Name() = %q, want %q", c.spec, got, c.want)
		}
		// Name is a fixpoint of parse→render.
		p2, err := ParsePhased(p.Name())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.Name(), err)
		}
		if p2.Name() != p.Name() || p2.MemoKey() != p.MemoKey() {
			t.Errorf("reparse of %q not a fixpoint: %q / %q", c.spec, p2.Name(), p2.MemoKey())
		}
	}
}

func TestParsePhasedRejects(t *testing.T) {
	bad := []string{
		"",
		"+",
		"redis-get90+",
		"nope+redis-get50",
		"redis-get90*0",
		"redis-get90*-2",
		"redis-get90*9999",
		"redis-get90*x",
		"redis-get90+nginx-static",    // mixed applications
		"sqlite-batch8+sqlite-batch1", // no four-component space
		strings.Repeat("redis-get90+", 20) + "redis-get90", // too many phases
	}
	for _, spec := range bad {
		if _, err := ParsePhased(spec); err == nil {
			t.Errorf("ParsePhased(%q) accepted, want error", spec)
		}
	}
}

func TestPhasedIdentity(t *testing.T) {
	p, err := ParsePhased("redis-get90*2+redis-get50")
	if err != nil {
		t.Fatal(err)
	}
	get90, _ := ByName("redis-get90")
	if p.App() != "redis" {
		t.Errorf("App() = %q", p.App())
	}
	quad, ok := p.Quad()
	wantQuad, _ := get90.Quad()
	if !ok || quad != wantQuad {
		t.Errorf("Quad() = %v, %v; want %v, true", quad, ok, wantQuad)
	}
	wantOps := get90.Ops()*2 + mustScenario(t, "redis-get50").Ops()
	if p.Ops() != wantOps {
		t.Errorf("Ops() = %d, want %d", p.Ops(), wantOps)
	}
	if got, want := p.Components(), get90.Components(); len(got) != len(want) {
		t.Errorf("Components() = %v, want %v", got, want)
	}
	if d := p.Description(); !strings.Contains(d, "2 phase(s)") || !strings.Contains(d, "redis") {
		t.Errorf("Description() = %q", d)
	}
	for spec, want := range map[string]bool{
		"redis-get90*2+redis-get50": true,
		"redis-get90*3":             true,
		"a+b":                       true,
		"redis-get90":               false,
		"":                          false,
	} {
		if IsPhasedSpec(spec) != want {
			t.Errorf("IsPhasedSpec(%q) = %v, want %v", spec, !want, want)
		}
	}
	key := p.MemoKey()
	if !strings.HasPrefix(key, "phased[") || !strings.Contains(key, "redis-get90/480") {
		t.Errorf("MemoKey() = %q", key)
	}
	// A schedule never shares a namespace with a plain scenario, and
	// distinct op budgets never share one either.
	if key == get90.MemoKey() {
		t.Errorf("phased memo key collides with scenario: %q", key)
	}
	if p.WithOps(100).MemoKey() == key {
		t.Errorf("WithOps did not change the memo key: %q", key)
	}
}

func mustScenario(t *testing.T, name string) *Scenario {
	t.Helper()
	s, ok := ByName(name)
	if !ok {
		t.Fatalf("scenario %q missing", name)
	}
	return s
}

func TestPhasedWithOpsSplit(t *testing.T) {
	p, err := ParsePhased("redis-get90*3+redis-get50")
	if err != nil {
		t.Fatal(err)
	}
	scaled := p.WithOps(100)
	phases := scaled.Phases()
	if len(phases) != 2 {
		t.Fatalf("phases: %v", phases)
	}
	if phases[0].Ops != 75 || phases[1].Ops != 25 {
		t.Errorf("WithOps(100) split = %d/%d, want 75/25", phases[0].Ops, phases[1].Ops)
	}
	if got := scaled.Ops(); got != 100 {
		t.Errorf("total ops = %d, want 100", got)
	}
	// Every phase keeps at least one op, even under a tiny budget.
	tiny := p.WithOps(1)
	for i, ph := range tiny.Phases() {
		if ph.Ops < 1 {
			t.Errorf("WithOps(1) phase %d has %d ops", i, ph.Ops)
		}
	}
	// WithOps never mutates the receiver.
	if p.Ops() == scaled.Ops() {
		t.Errorf("WithOps mutated the receiver")
	}
}

// TestPhasedRunMergesWorstCase checks the documented merge semantics
// against the phases run individually on the same image.
func TestPhasedRunMergesWorstCase(t *testing.T) {
	p, err := ParsePhased("redis-get90*2+redis-pipe8")
	if err != nil {
		t.Fatal(err)
	}
	get90 := mustScenario(t, "redis-get90")
	spec := baselineSpec(get90)

	merged, err := p.Run(spec)
	if err != nil {
		t.Fatalf("phased run: %v", err)
	}
	var parts []Metrics
	for _, ph := range p.Phases() {
		sc := mustScenario(t, ph.Scenario).WithOps(ph.Ops)
		m, err := sc.Run(spec)
		if err != nil {
			t.Fatalf("phase %s: %v", ph.Scenario, err)
		}
		parts = append(parts, m)
	}

	wantOps, wantCycles, wantCross := 0, uint64(0), uint64(0)
	var wantP99, wantMax, seconds float64
	var wantMem, wantBoot uint64
	for _, m := range parts {
		wantOps += m.Ops
		wantCycles += m.Cycles
		wantCross += m.Crossings
		seconds += float64(m.Ops) / m.Throughput
		wantP99 = max(wantP99, m.P99us)
		wantMax = max(wantMax, m.MaxUs)
		wantMem = max(wantMem, m.PeakMemBytes)
		wantBoot = max(wantBoot, m.BootCycles)
	}
	if merged.Ops != wantOps || merged.Cycles != wantCycles || merged.Crossings != wantCross {
		t.Errorf("sums: got ops=%d cycles=%d cross=%d, want %d/%d/%d",
			merged.Ops, merged.Cycles, merged.Crossings, wantOps, wantCycles, wantCross)
	}
	if merged.P99us != wantP99 || merged.MaxUs != wantMax {
		t.Errorf("worst-phase latency: got p99=%v max=%v, want %v/%v", merged.P99us, merged.MaxUs, wantP99, wantMax)
	}
	if merged.PeakMemBytes != wantMem || merged.BootCycles != wantBoot {
		t.Errorf("worst-phase footprint: got mem=%d boot=%d, want %d/%d",
			merged.PeakMemBytes, merged.BootCycles, wantMem, wantBoot)
	}
	wantTput := float64(wantOps) / seconds
	if diff := merged.Throughput - wantTput; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("throughput: got %v, want harmonic %v", merged.Throughput, wantTput)
	}
	// Determinism: a second run is identical.
	again, err := p.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again != merged {
		t.Errorf("phased run not deterministic:\n%+v\n%+v", again, merged)
	}
}
