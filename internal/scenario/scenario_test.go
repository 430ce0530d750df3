package scenario

import (
	"reflect"
	"strings"
	"testing"

	"flexos/internal/core"
	"flexos/internal/isolation"
	"flexos/internal/oslib"
)

// baselineSpec links every component of a scenario into one NONE
// compartment.
func baselineSpec(s *Scenario) core.ImageSpec {
	return core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "comp0",
			Libs: append([]string{oslib.BootName, oslib.MMName}, s.Components()...),
		}},
	}
}

// isolatedSpec puts the scenario's last component in its own MPK
// compartment (for four-component apps that is the network stack; for
// SQLite the time subsystem — any boundary works for smoke purposes).
func isolatedSpec(s *Scenario) core.ImageSpec {
	comps := s.Components()
	return core.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []core.CompSpec{
			{Name: "comp0", Libs: append([]string{oslib.BootName, oslib.MMName}, comps[:len(comps)-1]...)},
			{Name: "comp1", Libs: comps[len(comps)-1:]},
		},
	}
}

// TestScenarioSmoke runs every library scenario on a baseline and an
// isolated image and checks the metric vector's invariants.
func TestScenarioSmoke(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("scenario library has %d entries, want >= 10", len(all))
	}
	for _, sc := range all {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			base, err := sc.Run(baselineSpec(sc))
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			iso, err := sc.Run(isolatedSpec(sc))
			if err != nil {
				t.Fatalf("isolated run: %v", err)
			}
			for name, m := range map[string]Metrics{"baseline": base, "isolated": iso} {
				if m.Throughput <= 0 {
					t.Errorf("%s: non-positive throughput %v", name, m.Throughput)
				}
				if m.P50us <= 0 || m.P50us > m.P99us || m.P99us > m.MaxUs {
					t.Errorf("%s: latency percentiles not ordered: p50=%v p99=%v max=%v",
						name, m.P50us, m.P99us, m.MaxUs)
				}
				if m.PeakMemBytes == 0 {
					t.Errorf("%s: zero peak memory", name)
				}
				if m.BootCycles == 0 {
					t.Errorf("%s: zero boot cycles", name)
				}
				if m.Ops != sc.Ops() {
					t.Errorf("%s: ran %d ops, want %d", name, m.Ops, sc.Ops())
				}
				if m.Cycles == 0 {
					t.Errorf("%s: zero measurement cycles", name)
				}
			}
			// Isolation costs: crossings appear, throughput drops,
			// latency grows.
			if base.Crossings != 0 {
				t.Errorf("baseline image reports %d crossings, want 0", base.Crossings)
			}
			if iso.Crossings == 0 {
				t.Errorf("isolated image reports no gate crossings")
			}
			if iso.Throughput >= base.Throughput {
				t.Errorf("isolation sped the workload up: %v >= %v", iso.Throughput, base.Throughput)
			}
			if iso.P99us <= base.P99us {
				t.Errorf("isolation shrank p99: %v <= %v", iso.P99us, base.P99us)
			}
		})
	}
}

// TestScenarioDeterminism re-runs each scenario and requires the
// vectors to be byte-identical.
func TestScenarioDeterminism(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			a, err := sc.Run(baselineSpec(sc))
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.Run(baselineSpec(sc))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs disagree:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestScenarioMixesDiffer checks that the mix knobs actually change the
// workload: write ratios cost throughput and memory, stream counts cost
// throughput, batches amortize latency.
func TestScenarioMixesDiffer(t *testing.T) {
	run := func(sc *Scenario) Metrics {
		t.Helper()
		m, err := sc.Run(baselineSpec(sc))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	get100, get50 := run(RedisGet100), run(RedisGet50)
	if get50.PeakMemBytes <= get100.PeakMemBytes {
		t.Errorf("SET-heavy mix did not grow the heap: %d <= %d", get50.PeakMemBytes, get100.PeakMemBytes)
	}
	if get50.Throughput >= get100.Throughput {
		t.Errorf("SET-heavy mix did not cost throughput: %v >= %v", get50.Throughput, get100.Throughput)
	}
	pipe := run(RedisPipe8)
	if pipe.P50us <= get100.P50us*4 {
		t.Errorf("pipelined batch latency %vµs should cover ~8 requests (unpipelined %vµs)", pipe.P50us, get100.P50us)
	}
	s1, s8 := run(IPerfStream1), run(IPerfStream8)
	if s8.Throughput >= s1.Throughput {
		t.Errorf("8 streams did not cost per-packet throughput: %v >= %v", s8.Throughput, s1.Throughput)
	}
	static, keep := run(NginxStatic), run(NginxKeepalive)
	if static.Throughput >= keep.Throughput {
		t.Errorf("fresh connections did not cost throughput: %v >= %v", static.Throughput, keep.Throughput)
	}
	b1, b32 := run(SQLiteBatch1), run(SQLiteBatch32)
	if b32.Throughput <= b1.Throughput {
		t.Errorf("batching did not raise query throughput: %v <= %v", b32.Throughput, b1.Throughput)
	}
}

func TestWithOps(t *testing.T) {
	short := RedisGet90.WithOps(40)
	if short.Ops() != 40 || RedisGet90.Ops() == 40 {
		t.Fatalf("WithOps must copy: got %d, original %d", short.Ops(), RedisGet90.Ops())
	}
	m, err := short.Run(baselineSpec(short))
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops != 40 {
		t.Fatalf("ran %d ops, want 40", m.Ops)
	}
	if clamped := RedisGet90.WithOps(-3); clamped.Ops() != 1 {
		t.Fatalf("WithOps(-3) = %d ops, want clamp to 1", clamped.Ops())
	}
}

// TestIPerfAt checks the Figure 9 constructor: at the library's packet
// size it is iperf-stream1 under another name, it stays out of the
// registry, and the buffer size reaches the receive loop.
func TestIPerfAt(t *testing.T) {
	at := IPerfAt(iperfBufSize).WithOps(30)
	spec := isolatedSpec(at)
	got, err := at.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := IPerfStream1.WithOps(30).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("IPerfAt(%d) = %+v, iperf-stream1 = %+v", iperfBufSize, got, want)
	}
	if _, ok := ByName(at.Name()); ok {
		t.Fatalf("IPerfAt registered %s in the library", at.Name())
	}
	small, err := IPerfAt(64).WithOps(30).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if small.Throughput <= got.Throughput {
		t.Fatalf("64B packets/s %.0f <= 1460B packets/s %.0f", small.Throughput, got.Throughput)
	}
}

func TestRegistryLookups(t *testing.T) {
	if _, ok := ByName("redis-get90"); !ok {
		t.Fatal("redis-get90 missing from the library")
	}
	if _, ok := ByName("no-such"); ok {
		t.Fatal("ByName invented a scenario")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	apps := map[string]bool{}
	for _, sc := range All() {
		apps[sc.App()] = true
		if sc.Description() == "" {
			t.Errorf("%s: empty description", sc.Name())
		}
		if q, ok := sc.Quad(); ok && q[0] == "" {
			t.Errorf("%s: empty quad", sc.Name())
		}
	}
	for _, app := range []string{"redis", "nginx", "iperf", "sqlite"} {
		if !apps[app] {
			t.Errorf("no scenario for %s", app)
		}
	}
}

func TestMixHit(t *testing.T) {
	for _, pct := range []int{0, 10, 25, 50, 75, 90, 100} {
		hits := 0
		for i := 0; i < 1000; i++ {
			if mixHit(i, pct) {
				hits++
			}
		}
		if want := pct * 10; hits != want {
			t.Errorf("pct=%d: %d hits in 1000 ops, want %d", pct, hits, want)
		}
	}
}

func TestMetricSelectors(t *testing.T) {
	mx := Metrics{Throughput: 1000, P50us: 1, P99us: 2, MaxUs: 3, PeakMemBytes: 4096, BootCycles: 99, Survival: 0.5}
	cases := []struct {
		m    Metric
		v    float64
		high bool
	}{
		{MetricThroughput, 1000, true},
		{MetricP50, 1, false},
		{MetricP99, 2, false},
		{MetricMax, 3, false},
		{MetricPeakMem, 4096, false},
		{MetricBoot, 99, false},
		{MetricSurvival, 0.5, true},
	}
	for _, c := range cases {
		if got := c.m.Value(mx); got != c.v {
			t.Errorf("%s.Value = %v, want %v", c.m, got, c.v)
		}
		if c.m.HigherIsBetter() != c.high {
			t.Errorf("%s.HigherIsBetter = %v", c.m, c.m.HigherIsBetter())
		}
		if c.m.Unit() == "" {
			t.Errorf("%s has no unit", c.m)
		}
		parsed, err := ParseMetric(string(c.m))
		if err != nil || parsed != c.m {
			t.Errorf("ParseMetric(%q) = %v, %v", c.m, parsed, err)
		}
	}
	if MetricThroughput.Meets(10, 20) || !MetricThroughput.Meets(20, 20) {
		t.Error("throughput budget must be a floor")
	}
	if MetricP99.Meets(21, 20) || !MetricP99.Meets(20, 20) {
		t.Error("latency budget must be a ceiling")
	}
	if m, err := ParseMetric(""); err != nil || m != MetricThroughput {
		t.Errorf("ParseMetric(\"\") = %v, %v; want throughput default", m, err)
	}
	if _, err := ParseMetric("latency"); err == nil {
		t.Error("ParseMetric accepted an unknown name")
	}
	if len(AllMetrics()) != 7 {
		t.Errorf("AllMetrics lists %d metrics, want 7", len(AllMetrics()))
	}
	if !MetricSurvival.ImprovesWithSafety() || MetricThroughput.ImprovesWithSafety() {
		t.Error("only survival improves with safety")
	}
	if s := mx.String(); !strings.Contains(s, "surv=0.500000") {
		t.Errorf("Metrics.String missing survival: %q", s)
	}
	if s := (Metrics{Throughput: 1}).String(); strings.Contains(s, "surv=") {
		t.Errorf("Metrics.String must omit zero survival: %q", s)
	}
	if s := mx.String(); !strings.Contains(s, "p99") || !strings.Contains(s, "op/s") {
		t.Errorf("Metrics.String missing fields: %q", s)
	}
}
