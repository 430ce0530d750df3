package flexos_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexos"
)

// syntheticScalar is a deterministic safety-monotone scalar measure.
func syntheticScalar(c *flexos.ExploreConfig) (float64, error) {
	return 1000 - 150*float64(c.NumCompartments()-1) - 80*float64(c.HardenedCount()), nil
}

func TestQueryRunCanceledContextReturnsErrCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
		MeasureScalar(syntheticScalar).
		Run(ctx)
	if !errors.Is(err, flexos.ErrCanceled) {
		t.Fatalf("canceled query returned %v, want ErrCanceled", err)
	}
}

func TestQueryNoMeasureSourceErrors(t *testing.T) {
	_, err := flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "measurement source") {
		t.Fatalf("measureless query returned %v", err)
	}
}

func TestQueryNoFeasibleReturnsTypedErrorAndResult(t *testing.T) {
	res, err := flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
		MeasureScalar(syntheticScalar).
		Floor(flexos.MetricThroughput, 1e9).
		Run(context.Background())
	if !errors.Is(err, flexos.ErrNoFeasible) {
		t.Fatalf("infeasible query returned %v, want ErrNoFeasible", err)
	}
	if res == nil || res.Total != 80 || len(res.Safest) != 0 {
		t.Fatalf("infeasible query result = %+v", res)
	}
}

// TestQueryScenarioMemoNamespace is the regression test for a
// memo-namespace gap: two different scenarios with the
// same op count sharing one memo — and the same caller-supplied
// namespace — must never inherit each other's measurements.
func TestQueryScenarioMemoNamespace(t *testing.T) {
	get90, ok := flexos.ScenarioByName("redis-get90")
	if !ok {
		t.Fatal("redis-get90 missing")
	}
	get50, ok := flexos.ScenarioByName("redis-get50")
	if !ok {
		t.Fatal("redis-get50 missing")
	}
	// Same ops count: under the old API with an explicit
	// opts.Workload, their memo keys collided.
	get90, get50 = get90.WithOps(40), get50.WithOps(40)

	quad, _ := get90.Quad()
	cfgs := flexos.Fig6Space(quad)
	memo := flexos.NewExploreMemo()

	run := func(sc *flexos.Scenario) *flexos.ExploreResult {
		t.Helper()
		res, err := flexos.NewQuery(cfgs).
			Workload(sc).
			Namespace("user-namespace"). // historically the collision trigger
			Memo(memo).
			Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(get90)
	if first.MemoHits != 0 || first.Evaluated != first.Total {
		t.Fatalf("cold run: evaluated=%d hits=%d", first.Evaluated, first.MemoHits)
	}
	second := run(get50)
	if second.MemoHits != 0 {
		t.Fatalf("scenario memo namespaces collided: %d hits for a different scenario", second.MemoHits)
	}
	// Distinct vectors prove distinct measurements reached the memo.
	if first.Measurements[0].Metrics == second.Measurements[0].Metrics {
		t.Fatal("two different scenarios produced identical vectors — collision suspected")
	}
	// The same scenario re-run IS served from the memo.
	third := run(get90)
	if third.Evaluated != 0 || third.MemoHits != third.Total {
		t.Fatalf("warm rerun: evaluated=%d hits=%d", third.Evaluated, third.MemoHits)
	}
	// Different op counts of one scenario must not collide either.
	ops80, err := flexos.NewQuery(cfgs).Workload(get90.WithOps(80)).
		Namespace("user-namespace").Memo(memo).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ops80.MemoHits != 0 {
		t.Fatalf("op counts collided in the memo: %d hits", ops80.MemoHits)
	}
}

// TestQueryStreamDeterministicAcrossWorkers pins the acceptance
// criterion: a multi-constraint streaming exploration over
// CrossAppSpace yields a byte-identical stream for every worker count,
// and the final result matches a plain Run.
func TestQueryStreamDeterministicAcrossWorkers(t *testing.T) {
	cfgs := flexos.CrossAppSpace(nil, flexos.RedisComponents(), flexos.NginxComponents())
	measure := func(c *flexos.ExploreConfig) (flexos.Metrics, error) {
		// Deterministic synthetic vector with a worker-shaking sleep.
		time.Sleep(time.Duration(c.ID%5) * time.Microsecond)
		v, _ := syntheticScalar(c)
		return flexos.Metrics{
			Throughput:   v,
			P99us:        1 + (1000-v)/100,
			PeakMemBytes: 1000 + uint64(1000-v),
		}, nil
	}
	mkQuery := func(workers int) *flexos.Query {
		return flexos.NewQuery(cfgs).
			Measure(measure).
			Floor(flexos.MetricThroughput, 400).
			Ceiling(flexos.MetricP99, 7).
			Prune(true).
			Workers(workers)
	}
	ref, refErr := mkQuery(1).Run(context.Background())
	if refErr != nil && !errors.Is(refErr, flexos.ErrNoFeasible) {
		t.Fatal(refErr)
	}

	var want string
	for _, workers := range []int{1, 4, 8} {
		var b strings.Builder
		seq, final := mkQuery(workers).Stream(context.Background())
		streamed := 0
		for cfg, m := range seq {
			streamed++
			fmt.Fprintf(&b, "%d %s %v %v %d\n", cfg.ID, cfg.Label(), m.Throughput, m.P99us, m.PeakMemBytes)
		}
		res, err := final()
		if (err == nil) != (refErr == nil) && !errors.Is(err, flexos.ErrNoFeasible) {
			t.Fatalf("workers=%d: final err %v vs ref %v", workers, err, refErr)
		}
		if streamed == 0 {
			t.Fatalf("workers=%d: nothing streamed", workers)
		}
		if got := b.String(); want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d: stream diverged:\n%s\nvs\n%s", workers, got, want)
		}
		// The final result matches a plain Run byte-for-byte.
		if !reflect.DeepEqual(res.Safest, ref.Safest) || res.Evaluated != ref.Evaluated {
			t.Fatalf("workers=%d: final result diverges from Run", workers)
		}
		for i := range res.Measurements {
			if res.Measurements[i].Metrics != ref.Measurements[i].Metrics {
				t.Fatalf("workers=%d: measurement %d diverges from Run", workers, i)
			}
		}
	}
}

func TestQueryStreamEarlyBreakCancels(t *testing.T) {
	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	seq, final := flexos.NewQuery(cfgs).
		MeasureScalar(syntheticScalar).
		Workers(4).
		Stream(context.Background())
	seen := 0
	for range seq {
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("streamed %d before break", seen)
	}
	if _, err := final(); !errors.Is(err, flexos.ErrCanceled) {
		t.Fatalf("broken stream final() = %v, want ErrCanceled", err)
	}
}

func TestQueryStreamFinalWithoutConsuming(t *testing.T) {
	_, final := flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
		MeasureScalar(syntheticScalar).
		Floor(flexos.MetricThroughput, 500).
		Stream(context.Background())
	res, err := final()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Evaluated != res.Total {
		t.Fatalf("unconsumed stream final() = %+v", res)
	}
}

// TestQueryStreamYieldsEveryEvaluatedConfigInOrder checks the ordering
// contract: yields are exactly the evaluated configurations, ascending.
func TestQueryStreamYieldsEveryEvaluatedConfigInOrder(t *testing.T) {
	q := flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
		MeasureScalar(syntheticScalar).
		Floor(flexos.MetricThroughput, 500).
		Prune(true).
		Workers(8)
	seq, final := q.Stream(context.Background())
	var ids []int
	for cfg, _ := range seq {
		ids = append(ids, cfg.ID)
	}
	res, err := final()
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, m := range res.Measurements {
		if m.Evaluated {
			want = append(want, res.Measurements[i].Config.ID)
		}
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("stream ids %v, want evaluated set %v", ids, want)
	}
}

// TestQueryTimeoutOnPublicSurface drives -timeout semantics end to end:
// a deadline mid-exploration surfaces as ErrCanceled.
func TestQueryTimeoutOnPublicSurface(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
		MeasureScalar(func(c *flexos.ExploreConfig) (float64, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(50 * time.Millisecond):
			}
			return syntheticScalar(c)
		}).
		Workers(4).
		Run(ctx)
	if !errors.Is(err, flexos.ErrCanceled) {
		t.Fatalf("timed-out query returned %v, want ErrCanceled", err)
	}
}

func TestParseConstraintPublicSurface(t *testing.T) {
	c, err := flexos.ParseConstraint("p99<=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if c.Metric != flexos.MetricP99 || c.Op != flexos.AtMost || c.Bound != 2.5 {
		t.Fatalf("ParseConstraint = %+v", c)
	}
	if _, err := flexos.ParseConstraint("nonsense"); err == nil {
		t.Fatal("bad constraint accepted")
	}
}

// TestQueryProgressCountsEveryDecision pins Query.Progress: one call per
// decided configuration — measured, memo-filled or pruned — counting
// 1..n in order against the explored slice's size, whether the query
// runs or streams, over the whole space or one shard of it.
func TestQueryProgressCountsEveryDecision(t *testing.T) {
	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	for _, shard := range [][2]int{{0, 0}, {1, 3}} {
		for _, stream := range []bool{false, true} {
			var seen []int
			total := -1
			q := flexos.NewQuery(cfgs).
				MeasureScalar(syntheticScalar).
				Floor(flexos.MetricThroughput, 600).
				Prune(true).
				Workers(4).
				Progress(func(done, n int) {
					seen = append(seen, done)
					total = n
				})
			if shard[1] > 0 {
				q.Shard(shard[0], shard[1])
			}
			var res *flexos.ExploreResult
			var err error
			if stream {
				seq, final := q.Stream(context.Background())
				for range seq {
				}
				res, err = final()
			} else {
				res, err = q.Run(context.Background())
			}
			if err != nil {
				t.Fatalf("shard %v stream %t: %v", shard, stream, err)
			}
			n := len(res.Measurements)
			if total != n || len(seen) != n {
				t.Fatalf("shard %v stream %t: %d progress calls with total %d, want %d",
					shard, stream, len(seen), total, n)
			}
			for i, d := range seen {
				if d != i+1 {
					t.Fatalf("shard %v stream %t: progress out of order at %d: %v", shard, stream, i, seen[:i+1])
				}
			}
		}
	}
}
