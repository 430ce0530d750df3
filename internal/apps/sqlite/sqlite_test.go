package sqlite_test

import (
	"testing"

	"flexos/internal/apps/sqlite"
	"flexos/internal/core"
	"flexos/internal/isolation"
	"flexos/internal/machine"
	"flexos/internal/mem"
	"flexos/internal/oslib"
	"flexos/internal/ramfs"
	"flexos/internal/scenario"
	"flexos/internal/timesys"
	"flexos/internal/vfs"
)

// insert runs the sqlite-batch1 scenario — one INSERT per transaction,
// the Figure 10 loop — for the given number of queries.
func insert(t *testing.T, spec core.ImageSpec, queries int) scenario.Metrics {
	t.Helper()
	m, err := scenario.SQLiteBatch1.WithOps(queries).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// seconds is the simulated time of a run's insert loop.
func seconds(m scenario.Metrics) float64 {
	return float64(m.Cycles) / machine.DefaultCosts().FreqHz
}

// specNone is the FlexOS-without-isolation configuration.
func specNone() core.ImageSpec {
	return core.ImageSpec{
		Mechanism: "none",
		Comps:     []core.CompSpec{{Name: "c0", Libs: sqlite.Components2()}},
	}
}

// specMPK3 is the paper's MPK3 scenario: filesystem isolated from the
// time subsystem from the rest of the system.
func specMPK3() core.ImageSpec {
	rest := []string{oslib.BootName, oslib.MMName, sqlite.Name, "newlib", oslib.SchedName}
	return core.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []core.CompSpec{
			{Name: "comp0", Libs: rest},
			{Name: "fs", Libs: []string{vfs.Name, ramfs.Name}},
			{Name: "time", Libs: []string{timesys.Name}},
		},
	}
}

// specEPT2 is the paper's EPT2 scenario: the filesystem (with its time
// dependency) isolated from the application.
func specEPT2() core.ImageSpec {
	rest := []string{oslib.BootName, oslib.MMName, sqlite.Name, "newlib", oslib.SchedName}
	return core.ImageSpec{
		Mechanism: "vm-ept",
		Comps: []core.CompSpec{
			{Name: "comp0", Libs: rest},
			{Name: "fs", Libs: []string{vfs.Name, ramfs.Name, timesys.Name}},
		},
	}
}

func TestInsertFunctional(t *testing.T) {
	res := insert(t, specNone(), 20)
	if res.Ops != 20 || seconds(res) <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestBaselineCalibration(t *testing.T) {
	// Fig. 10: 5000 INSERTs take ~0.052s on Unikraft / FlexOS NONE.
	// Scale: 250 queries should take ~0.0026s.
	res := insert(t, specNone(), 250)
	perQuery := seconds(res) / float64(res.Ops)
	if perQuery < 6e-6 || perQuery > 16e-6 {
		t.Fatalf("per-query time = %.2fus, want ~10.4us", perQuery*1e6)
	}
}

func TestMPK3RoughlyDoubles(t *testing.T) {
	// Fig. 10: FlexOS MPK3 adds ~2x over NONE.
	none := insert(t, specNone(), 150)
	mpk3 := insert(t, specMPK3(), 150)
	ratio := seconds(mpk3) / seconds(none)
	if ratio < 1.6 || ratio > 2.6 {
		t.Fatalf("MPK3/NONE = %.2fx, want ~2x", ratio)
	}
}

func TestEPT2SlowerThanMPK3(t *testing.T) {
	// Fig. 10 ordering: NONE < MPK3 < EPT2, with EPT2 ~3.3x NONE.
	none := insert(t, specNone(), 150)
	mpk3 := insert(t, specMPK3(), 150)
	ept2 := insert(t, specEPT2(), 150)
	if !(seconds(none) < seconds(mpk3) && seconds(mpk3) < seconds(ept2)) {
		t.Fatalf("ordering broken: none=%.4f mpk3=%.4f ept2=%.4f",
			seconds(none), seconds(mpk3), seconds(ept2))
	}
	ratio := seconds(ept2) / seconds(none)
	if ratio < 2.4 || ratio > 4.4 {
		t.Fatalf("EPT2/NONE = %.2fx, want ~3.3x", ratio)
	}
}

func TestWorkloadShapeConstants(t *testing.T) {
	if sqlite.FSOpsPerQuery() < 50 {
		t.Fatalf("FSOpsPerQuery = %d; the workload must stress the filesystem", sqlite.FSOpsPerQuery())
	}
	if sqlite.TimeOpsPerQuery() != 2 {
		t.Fatalf("TimeOpsPerQuery = %d", sqlite.TimeOpsPerQuery())
	}
	// The pure compute of one query, with no gates: 50 queries on a
	// single-compartment NONE image. ~22.9k cycles/query at calibration.
	res := insert(t, specNone(), 50)
	if w := res.Cycles / uint64(res.Ops); w < 12000 || w > 36000 {
		t.Fatalf("base work = %d cycles/query, want ~23k", w)
	}
}

func TestRamfsVfscoreEntanglement(t *testing.T) {
	// §4.4: ramfs is so entangled with vfscore that isolating it alone
	// is wrong — in FlexOS-Go, splitting them means vfs passes node
	// buffers it cannot reach. Verify the sanctioned split (together)
	// works and that the state stays consistent.
	cat, _ := sqlite.Catalog()
	img, err := core.Build(cat, specMPK3())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := img.NewContext("t", sqlite.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Call(sqlite.Name, "open_db"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Call(sqlite.Name, "exec_insert", 1); err != nil {
		t.Fatal(err)
	}
	// The database file must contain the written page.
	v, err := ctx.Call(vfs.Name, "size", "/test.db")
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 2048 {
		t.Fatalf("db size = %d, want 2048", v)
	}
	// The journal must be gone after commit.
	if _, err := ctx.Call(vfs.Name, "size", "/test.db-journal"); err == nil {
		t.Fatal("journal survived the commit")
	}
}

func TestDirectPrivateFSAccessFaults(t *testing.T) {
	// An application thread must not be able to touch filesystem state
	// directly when the fs is compartmentalized: that is the whole point.
	cat, _ := sqlite.Catalog()
	img, err := core.Build(cat, specMPK3())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := img.NewContext("t", sqlite.Name)
	if err != nil {
		t.Fatal(err)
	}
	fsComp, ok := img.Comp(vfs.Name)
	if !ok {
		t.Fatal("no fs compartment")
	}
	addr, err := fsComp.Heap.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	err = ctx.Read(addr, make([]byte, 8))
	if !mem.IsFault(err, mem.FaultKeyViolation) {
		t.Fatalf("app read of fs-private memory: got %v, want key violation", err)
	}
}
