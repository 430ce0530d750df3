package figures

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden-file tests for the figure formatters: the rendered text of
// Figures 6, 7 and 8 and of the multi-metric additions (scenario table,
// Pareto frontier) is compared byte-for-byte against checked-in
// testdata/*.golden files, so any regression in measurement,
// formatting, ordering or the cost model shows up as a CI diff.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/figures -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden files")

// goldenRequests keeps the figure sweeps fast; the golden files pin the
// output at this size.
const goldenRequests = 120

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output diverges from %s.\ngot:\n%s\nwant:\n%s\n(re-run with -update if the change is intentional)",
			name, path, got, string(want))
	}
}

func TestGoldenFig6(t *testing.T) {
	redisRows, err := Fig6Redis(context.Background(), goldenRequests, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6-redis", FormatFig6("Redis", redisRows))
	nginxRows, err := Fig6Nginx(context.Background(), goldenRequests, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6-nginx", FormatFig6("Nginx", nginxRows))
}

func TestGoldenFig7(t *testing.T) {
	redisRows, err := Fig6Redis(context.Background(), goldenRequests, 0)
	if err != nil {
		t.Fatal(err)
	}
	nginxRows, err := Fig6Nginx(context.Background(), goldenRequests, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7", FormatFig7(Fig7(redisRows, nginxRows)))
}

func TestGoldenFig8(t *testing.T) {
	res, err := Fig8(context.Background(), goldenRequests, 500_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8", FormatFig8(res))
	checkGolden(t, "fig8-dot", res.Result.DOT("fig8"))
}

func TestGoldenScenarios(t *testing.T) {
	rows, err := ScenarioTable()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenarios", FormatScenarios(rows))
}

func TestGoldenPareto(t *testing.T) {
	res, err := ScenarioPareto(context.Background(), "redis-get90", 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "pareto-redis-get90", FormatPareto("redis-get90", res))
}
