package flexos_test

import (
	"context"
	"strings"
	"testing"

	"flexos"
)

// paperConfig adapts the §3 example configuration to the shipped
// components.
const paperConfig = `
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

func TestPublicAPIEndToEnd(t *testing.T) {
	cat := flexos.FullCatalog()
	cfg, err := flexos.ParseConfig(paperConfig)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := flexos.SpecFromConfig(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	img, err := flexos.Build(cat, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := img.Report()
	if r.Mechanism != "intel-mpk" || len(r.Comps) != 2 {
		t.Fatalf("report = %+v", r)
	}
	if !strings.Contains(r.String(), "mpk/full") {
		t.Fatalf("report missing gate binding:\n%s", r.String())
	}
}

func TestFullCatalogContents(t *testing.T) {
	cat := flexos.FullCatalog()
	for _, lib := range []string{
		flexos.LibBoot, flexos.LibMM, flexos.LibSched, flexos.LibC,
		flexos.LibNet, flexos.LibVFS, flexos.LibRamfs, flexos.LibTime,
		flexos.LibRedis, flexos.LibNginx, flexos.LibSQLite, flexos.LibIPerf,
	} {
		if _, ok := cat.Lookup(lib); !ok {
			t.Errorf("FullCatalog missing %q", lib)
		}
	}
	if cat.Len() != 12 {
		t.Fatalf("catalog has %d components, want 12", cat.Len())
	}
}

func TestFullCatalogIndependence(t *testing.T) {
	// Component state must be per image: no cross-talk between images
	// of two catalogs, nor between two images of one catalog.
	spec := flexos.ImageSpec{
		Mechanism: "none",
		Comps: []flexos.CompSpec{{
			Name: "c0",
			Libs: append(flexos.TCBLibs(),
				flexos.LibSched, flexos.LibC, flexos.LibNet, flexos.LibRedis,
				flexos.LibVFS, flexos.LibRamfs, flexos.LibTime,
				flexos.LibNginx, flexos.LibSQLite, flexos.LibIPerf),
		}},
	}
	shared := flexos.FullCatalog()
	for _, tc := range []struct {
		name string
		a, b *flexos.Catalog
	}{
		{"two catalogs", flexos.FullCatalog(), flexos.FullCatalog()},
		{"one catalog", shared, shared},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := flexos.Build(tc.a, spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := flexos.Build(tc.b, spec)
			if err != nil {
				t.Fatal(err)
			}
			ctxA, _ := a.NewContext("a", flexos.LibRedis)
			if _, err := ctxA.Call(flexos.Symbol(flexos.LibRedis, "setup"), flexos.Words(2)); err != nil {
				t.Fatal(err)
			}
			ctxB, _ := b.NewContext("b", flexos.LibRedis)
			// Image B's redis must not see image A's socket.
			enq := flexos.Words(1)
			enq.B = []byte("x")
			if _, err := ctxB.Call(flexos.Symbol(flexos.LibNet, "rx_enqueue"), enq); err == nil {
				t.Fatal("component state leaked between images")
			}
		})
	}
}

// TestBenchmarkHelpers runs each application's workload driver — one
// scenario per application — on a single-compartment image through the
// public surface.
func TestBenchmarkHelpers(t *testing.T) {
	one := func(libs ...string) flexos.ImageSpec {
		return flexos.ImageSpec{
			Mechanism: "none",
			Comps:     []flexos.CompSpec{{Name: "c0", Libs: append(flexos.TCBLibs(), libs...)}},
		}
	}
	for _, tc := range []struct {
		scenario string
		ops      int
		libs     []string
	}{
		{"redis-get100", 20, []string{flexos.LibRedis, flexos.LibC, flexos.LibSched, flexos.LibNet}},
		{"nginx-keepalive", 20, []string{flexos.LibNginx, flexos.LibC, flexos.LibSched, flexos.LibNet}},
		{"sqlite-batch1", 5, []string{flexos.LibSQLite, flexos.LibC, flexos.LibSched, flexos.LibVFS, flexos.LibRamfs, flexos.LibTime}},
		{"iperf-stream1", 10, []string{flexos.LibIPerf, flexos.LibC, flexos.LibSched, flexos.LibNet}},
	} {
		sc, ok := flexos.ScenarioByName(tc.scenario)
		if !ok {
			t.Fatalf("scenario %s missing", tc.scenario)
		}
		if _, err := sc.WithOps(tc.ops).Run(one(tc.libs...)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExploreThroughPublicAPI(t *testing.T) {
	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	if len(cfgs) != 80 {
		t.Fatalf("space = %d", len(cfgs))
	}
	synthetic := func(c *flexos.ExploreConfig) (float64, error) {
		return 1000 - 100*float64(c.NumCompartments()) - 50*float64(c.HardenedCount()), nil
	}
	res, err := flexos.NewQuery(cfgs).MeasureScalar(synthetic).
		Floor(flexos.MetricThroughput, 500).Prune(true).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Safest) == 0 {
		t.Fatal("no safest configs")
	}
}

func TestTableOnePublic(t *testing.T) {
	rows := flexos.TableOne(flexos.FullCatalog())
	// Table 1 has 8 rows: lwip, uksched, vfscore(+ramfs), uktime,
	// redis, nginx, sqlite, iperf.
	if len(rows) != 8 {
		t.Fatalf("Table 1 rows = %d, want 8", len(rows))
	}
	want := map[string]int{
		"lwip": 23, "uksched": 5, "vfscore": 12, "uktime": 0,
		"libredis": 16, "libnginx": 36, "libsqlite": 24, "libiperf": 4,
	}
	for _, r := range rows {
		if w, ok := want[r.Lib]; ok && r.SharedVars != w {
			t.Errorf("%s shared vars = %d, want %d (Table 1)", r.Lib, r.SharedVars, w)
		}
	}
}
