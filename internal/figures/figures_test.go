package figures

import (
	"context"
	"os"
	"strings"
	"testing"
)

// Small request counts keep the suite fast; the simulation is
// deterministic so small counts are exact, not noisy.
const (
	reqs    = 150
	queries = 60
	packets = 30
)

func TestFig6RedisShape(t *testing.T) {
	rows, err := Fig6Redis(context.Background(), reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 80 {
		t.Fatalf("Fig6 rows = %d, want 80", len(rows))
	}
	// Sorted ascending.
	for i := 1; i < len(rows); i++ {
		if rows[i].Perf < rows[i-1].Perf {
			t.Fatal("rows not sorted")
		}
	}
	// The fastest configuration disables isolation and hardening.
	top := rows[len(rows)-1]
	if top.Compartments != 1 || top.Hardened != 0 {
		t.Fatalf("fastest config = %+v, want 1 comp / 0 hardened", top)
	}
	// The slowest has many compartments / much hardening.
	bottom := rows[0]
	if bottom.Compartments < 2 || bottom.Hardened < 3 {
		t.Fatalf("slowest config = %+v", bottom)
	}
	// Wide spread ("one order of magnitude" in the paper's narrative is
	// ~4.1x between extremes; require at least 2.5x here).
	if top.Perf/bottom.Perf < 2.5 {
		t.Fatalf("spread = %.2fx, want >= 2.5x", top.Perf/bottom.Perf)
	}
	text := FormatFig6("redis", rows)
	if !strings.Contains(text, "spread") {
		t.Fatal("format missing spread line")
	}
}

func TestFig6NginxFlatterHead(t *testing.T) {
	redisRows, err := Fig6Redis(context.Background(), reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	nginxRows, err := Fig6Nginx(context.Background(), reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// §6.1: more Nginx configs sit under 20% overhead than Redis
	// configs.
	under := func(rows []ConfigPerf, frac float64) int {
		max := rows[len(rows)-1].Perf
		n := 0
		for _, r := range rows {
			if r.Perf >= (1-frac)*max {
				n++
			}
		}
		return n
	}
	rU, nU := under(redisRows, 0.20), under(nginxRows, 0.20)
	if nU <= rU {
		t.Fatalf("low-overhead configs: nginx %d <= redis %d; distribution shape wrong", nU, rU)
	}
}

func TestFig7PairsAllConfigs(t *testing.T) {
	redisRows, _ := Fig6Redis(context.Background(), 100, 0)
	nginxRows, _ := Fig6Nginx(context.Background(), 100, 0)
	pts := Fig7(redisRows, nginxRows)
	if len(pts) != 80 {
		t.Fatalf("scatter points = %d, want 80", len(pts))
	}
	for _, p := range pts {
		if p.RedisNorm <= 0 || p.RedisNorm > 1 || p.NginxNorm <= 0 || p.NginxNorm > 1 {
			t.Fatalf("bad normalization: %+v", p)
		}
	}
	if !strings.Contains(FormatFig7(pts), "nginx-norm") {
		t.Fatal("format wrong")
	}
}

func TestFig8FindsAFewStars(t *testing.T) {
	// Paper: the 500k req/s budget prunes 80 configurations to 5.
	res, err := Fig8(context.Background(), reqs, 500_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stars) < 2 || len(res.Stars) > 12 {
		t.Fatalf("stars = %d, want a handful (~5)", len(res.Stars))
	}
	// Pruning must have saved measurements.
	if res.Evaluated >= res.Total {
		t.Fatalf("no pruning: %d/%d", res.Evaluated, res.Total)
	}
	for _, s := range res.Stars {
		if s.Perf < 500_000 {
			t.Fatalf("star below budget: %+v", s)
		}
	}
	if !strings.Contains(FormatFig8(res), "stars") {
		t.Fatal("format wrong")
	}
}

func TestFig5LatticeAndBudget(t *testing.T) {
	nodes, err := Fig5(context.Background(), 100, 600_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 16 {
		t.Fatalf("Fig5 nodes = %d, want 16", len(nodes))
	}
	stars := 0
	for _, n := range nodes {
		if n.Star {
			stars++
			if n.Pruned {
				t.Fatal("a node cannot be both star and pruned")
			}
		}
	}
	if stars == 0 {
		t.Fatal("no maximal elements under budget")
	}
	_ = FormatFig5(nodes, 600_000)
}

func TestFig9Shape(t *testing.T) {
	rows, err := Fig9(packets)
	if err != nil {
		t.Fatal(err)
	}
	get := func(sys string, size int) float64 {
		for _, r := range rows {
			if r.System == sys && r.BufSize == size {
				return r.Gbps
			}
		}
		t.Fatalf("missing %s@%d", sys, size)
		return 0
	}
	// Ordering at 16B.
	if !(get("FlexOS NONE", 16) > get("FlexOS MPK2-light", 16) &&
		get("FlexOS MPK2-light", 16) > get("FlexOS MPK2-dss", 16) &&
		get("FlexOS MPK2-dss", 16) > get("FlexOS EPT2", 16)) {
		t.Fatal("Fig9 ordering at 16B broken")
	}
	// Unikraft == FlexOS NONE (P4).
	if get("Unikraft", 1024) != get("FlexOS NONE", 1024) {
		t.Fatal("Unikraft and FlexOS NONE must coincide")
	}
	// Convergence at 16KiB.
	if get("FlexOS EPT2", 16384) < 0.9*get("FlexOS NONE", 16384) {
		t.Fatal("EPT must converge at large buffers")
	}
	_ = FormatFig9(rows)
}

func TestFig10ShapeMatchesPaper(t *testing.T) {
	rows, err := Fig10(queries)
	if err != nil {
		t.Fatal(err)
	}
	get := func(sys, iso string) float64 {
		for _, r := range rows {
			if r.System == sys && r.Isolation == iso {
				return r.Seconds
			}
		}
		t.Fatalf("missing %s/%s", sys, iso)
		return 0
	}
	none := get("FlexOS", "NONE")
	mpk3 := get("FlexOS", "MPK3")
	ept2 := get("FlexOS", "EPT2")
	linux := get("Linux", "PT2")
	sel4 := get("SeL4/Genode", "PT3")
	cubN := get("CubicleOS", "NONE")
	cubM := get("CubicleOS", "MPK3")
	linuxu := get("Unikraft/linuxu", "NONE")

	// Unikraft == FlexOS NONE.
	if get("Unikraft", "NONE") != none {
		t.Fatal("Unikraft and FlexOS NONE must coincide")
	}
	// Paper's ordering: NONE < MPK3 < EPT2 ~ Linux < SeL4 < CubicleOS
	// NONE < linuxu < CubicleOS MPK3.
	if !(none < mpk3 && mpk3 < ept2 && ept2 < sel4 && sel4 < cubN && cubN < linuxu && linuxu < cubM) {
		t.Fatalf("Fig10 ordering broken: none=%.3f mpk3=%.3f ept2=%.3f linux=%.3f sel4=%.3f cubN=%.3f linuxu=%.3f cubM=%.3f",
			none, mpk3, ept2, linux, sel4, cubN, linuxu, cubM)
	}
	// "FlexOS with EPT2 performs almost identically to Linux."
	if ept2/linux < 0.7 || ept2/linux > 1.3 {
		t.Fatalf("EPT2 vs Linux = %.2f, want ~1.0", ept2/linux)
	}
	// "Compared to SeL4, FlexOS is 3.1x faster with MPK3."
	if sel4/mpk3 < 2.0 || sel4/mpk3 > 4.5 {
		t.Fatalf("SeL4/MPK3 = %.2fx, want ~3.1x", sel4/mpk3)
	}
	// "Compared to CubicleOS, FlexOS is an order of magnitude faster."
	if cubM/mpk3 < 8 {
		t.Fatalf("CubicleOS MPK3 / FlexOS MPK3 = %.1fx, want >= 10x", cubM/mpk3)
	}
	_ = FormatFig10(rows)
}

func TestFig11aShape(t *testing.T) {
	rows, err := Fig11a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	get := func(strategy string, buffers int) uint64 {
		for _, r := range rows {
			if r.Strategy == strategy && r.Buffers == buffers {
				return r.Cycles
			}
		}
		t.Fatalf("missing %s/%d", strategy, buffers)
		return 0
	}
	// DSS matches shared-stack performance (constant, 2 cycles per
	// variable)...
	for n := 1; n <= 3; n++ {
		if get("dss", n) != get("shared-stack", n) {
			t.Fatal("DSS must match shared-stack cost")
		}
		if get("dss", n) != uint64(2*n) {
			t.Fatalf("dss(%d) = %d cycles, want %d", n, get("dss", n), 2*n)
		}
	}
	// ...while heap conversion is 1-2 orders of magnitude slower and
	// grows with the number of variables.
	if get("heap", 1) < 50 {
		t.Fatalf("heap(1) = %d, want >= 50 cycles", get("heap", 1))
	}
	if !(get("heap", 1) < get("heap", 2) && get("heap", 2) < get("heap", 3)) {
		t.Fatal("heap cost must grow with buffer count")
	}
	_ = FormatFig11a(rows)
}

func TestFig11bMatchesCalibration(t *testing.T) {
	rows, err := Fig11b()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"function":       2,
		"MPK-light":      62,
		"MPK-dss":        108,
		"EPT":            462,
		"syscall-nokpti": 146,
		"syscall":        470,
	}
	for _, r := range rows {
		w, ok := want[r.Gate]
		if !ok {
			t.Fatalf("unexpected gate %q", r.Gate)
		}
		// Measured gate paths may include a few cycles of frame
		// bookkeeping; allow +/- 10.
		diff := int64(r.Cycles) - int64(w)
		if diff < -10 || diff > 10 {
			t.Errorf("%s = %d cycles, want ~%d (Fig. 11b)", r.Gate, r.Cycles, w)
		}
	}
	_ = FormatFig11b(rows)
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := map[string][3]int{
		"lwip":      {542, 275, 23},
		"uksched":   {48, 8, 5},
		"vfscore":   {148, 37, 12},
		"uktime":    {10, 9, 0},
		"libredis":  {279, 90, 16},
		"libnginx":  {470, 85, 36},
		"libsqlite": {199, 145, 24},
		"libiperf":  {15, 14, 4},
	}
	if len(rows) != len(want) {
		t.Fatalf("Table 1 rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		w, ok := want[r.Lib]
		if !ok {
			t.Errorf("unexpected row %q", r.Lib)
			continue
		}
		if r.PatchAdd != w[0] || r.PatchDel != w[1] || r.SharedVars != w[2] {
			t.Errorf("%s = +%d/-%d/%d vars, want +%d/-%d/%d",
				r.Lib, r.PatchAdd, r.PatchDel, r.SharedVars, w[0], w[1], w[2])
		}
	}
	_ = FormatTable1(rows)
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	rows, err := Fig11b()
	if err != nil {
		t.Fatal(err)
	}
	h, out := Fig11bCSV(rows)
	if err := WriteCSV(dir, "11b", h, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/fig11b.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "gate,cycles") || !strings.Contains(string(data), "EPT,") {
		t.Fatalf("csv content:\n%s", data)
	}
	// All converters produce aligned headers/rows.
	aRows, err := Fig11a()
	if err != nil {
		t.Fatal(err)
	}
	ah, aOut := Fig11aCSV(aRows)
	if len(aOut) != len(aRows) || len(aOut[0]) != len(ah) {
		t.Fatal("Fig11aCSV shape mismatch")
	}
}
