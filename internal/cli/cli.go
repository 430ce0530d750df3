// Package cli holds the exploration plumbing the command-line tools
// share: assembling a flexos.Query from the common -app / -scenario
// selection flags, parsing repeated -budget constraints, and printing
// the exploration report.
//
// The report printer is deliberately split in two: PrintReport writes
// the deterministic result — title, constraint list, safest set,
// optional Pareto frontier — and nothing else, while PrintStats writes
// the run statistics (evaluated / cache hits / pruned) that legally
// differ between a cold and a warm run. flexos-explore sends the
// former to stdout and the latter to stderr, which is what lets CI
// assert that a warm rerun, a sharded-and-merged run and a cold run
// produce byte-identical stdout while still reading the cache hit
// rate off stderr.
package cli

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"flexos"
)

// memoKeyer lets Build read a workload's memo namespace (Scenario and
// PhasedScenario both implement it).
type memoKeyer interface{ MemoKey() string }

// attackQuery assembles the attack-axis variant of a scenario query:
// the base space is stamped with the machine profile and — for attack
// runs — expanded along the ASLR ladder and control-flow hardening
// variants, and every measurement carries the attack scenario's
// survival score. The memo namespace separates attack runs from plain
// performance runs of the same workload.
func (r *Request) attackQuery(w flexos.Workload, quad [4]string) (*flexos.Query, string, error) {
	spec := flexos.AttackSpec{}
	if r.Attack != "" {
		att, ok := flexos.AttackByName(r.Attack)
		if !ok {
			return nil, "", fmt.Errorf("unknown attack scenario %q (want %s)", r.Attack, flexos.AttackNames())
		}
		spec.Scenario = att.Name()
	}
	canon, err := flexos.CanonicalProfile(r.Profile)
	if err != nil {
		return nil, "", err
	}
	spec.Profile = canon
	if r.ASLR != "" {
		a, err := flexos.ParseASLR(r.ASLR)
		if err != nil {
			return nil, "", err
		}
		spec.ASLR = a
		spec.PinASLR = true
	}

	space := flexos.Fig6Space(quad)
	ns := w.Name()
	if mk, ok := w.(memoKeyer); ok {
		ns = mk.MemoKey()
	}
	measure := flexos.MeasureScenario(w)
	title := w.Name()
	if spec.Scenario == "" {
		// Profile and/or pinned ASLR without an attacker: stamp the
		// space, keep the plain performance measure.
		space = flexos.StampSpace(space, spec.Profile, spec.ASLR, spec.PinASLR)
		return flexos.NewQuery(space).Measure(measure).Namespace(ns), title, nil
	}
	att, _ := flexos.AttackByName(spec.Scenario)
	space = flexos.AttackSpace(space, spec)
	q := flexos.NewQuery(space).
		Measure(flexos.MeasureAttack(att, measure)).
		Namespace(flexos.AttackNamespace(att, ns))
	return q, title + " vs " + spec.String(), nil
}

// query assembles the query for the request's space and workload:
// either a scalar App benchmark space or a multi-metric Scenario
// workload. It returns the query, the report title, and whether the
// query measures full metric vectors (scenario mode) rather than
// throughput only.
func (r *Request) query() (q *flexos.Query, title string, scenarioMode bool, err error) {
	attackAxes := r.Attack != "" || r.Profile != "" || r.ASLR != ""
	if r.Scenario == "" && attackAxes {
		return nil, "", false, fmt.Errorf("-attack/-profile/-aslr require -scenario (the -app benchmarks have no attack-axis space)")
	}
	if r.Scenario != "" {
		if flexos.IsPhasedSpec(r.Scenario) {
			ph, err := flexos.ParsePhased(r.Scenario)
			if err != nil {
				return nil, "", false, err
			}
			if r.Ops > 0 {
				ph = ph.WithOps(r.Ops)
			}
			quad, _ := ph.Quad() // ParsePhased rejects quad-less phases
			if attackAxes {
				q, title, err := r.attackQuery(ph, quad)
				return q, title, true, err
			}
			return flexos.NewQuery(flexos.Fig6Space(quad)).Workload(ph), ph.Name(), true, nil
		}
		sc, ok := flexos.ScenarioByName(r.Scenario)
		if !ok {
			return nil, "", false, fmt.Errorf("unknown scenario %q (try -list)", r.Scenario)
		}
		if r.Ops > 0 {
			sc = sc.WithOps(r.Ops)
		}
		quad, ok := sc.Quad()
		if !ok {
			return nil, "", false, fmt.Errorf("scenario %q has no four-component space", sc.Name())
		}
		if attackAxes {
			q, title, err := r.attackQuery(sc, quad)
			return q, title, true, err
		}
		return flexos.NewQuery(flexos.Fig6Space(quad)).Workload(sc), sc.Name(), true, nil
	}

	// The -app spaces run the redis-get100 and nginx-keepalive
	// scenarios but keep only throughput, under their own namespaces.
	throughput := func(name string) func(*flexos.ExploreConfig) (float64, error) {
		sc, _ := flexos.ScenarioByName(name)
		sc = sc.WithOps(r.Requests)
		return func(c *flexos.ExploreConfig) (float64, error) {
			m, err := sc.Run(c.Spec(flexos.TCBLibs()))
			return m.Throughput, err
		}
	}
	measureRedis := throughput("redis-get100")
	measureNginx := throughput("nginx-keepalive")
	switch r.App {
	case "redis":
		return flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
			MeasureScalar(measureRedis).Namespace(fmt.Sprintf("redis/%d", r.Requests)), r.App, false, nil
	case "nginx":
		return flexos.NewQuery(flexos.Fig6Space(flexos.NginxComponents())).
			MeasureScalar(measureNginx).Namespace(fmt.Sprintf("nginx/%d", r.Requests)), r.App, false, nil
	case "cross":
		cfgs := flexos.CrossAppSpace(nil, flexos.RedisComponents(), flexos.NginxComponents())
		// Dispatch on the application the configuration contains; the
		// two sub-spaces are incomparable and explore independently.
		measure := func(c *flexos.ExploreConfig) (float64, error) {
			for _, comp := range c.Components() {
				switch comp {
				case flexos.LibRedis:
					return measureRedis(c)
				case flexos.LibNginx:
					return measureNginx(c)
				}
			}
			return 0, fmt.Errorf("config %d contains no known application", c.ID)
		}
		return flexos.NewQuery(cfgs).MeasureScalar(measure).
			Namespace(fmt.Sprintf("cross/%d", r.Requests)), r.App, false, nil
	}
	return nil, "", false, fmt.Errorf("unknown app %q", r.App)
}

// parseBudgets turns repeated -budget values into constraints. A plain
// number bounds the default metric in its natural direction; the full
// syntax ("p99<=2.5") names its own metric and direction. No -budget
// at all keeps the historical default of 500000 on the chosen metric —
// except for survival, a probability, where the default floor is 0.5.
func parseBudgets(budgets []string, metric flexos.Metric) ([]flexos.ExploreConstraint, error) {
	if len(budgets) == 0 {
		if metric == flexos.MetricSurvival {
			budgets = []string{"0.5"}
		} else {
			budgets = []string{"500000"}
		}
	}
	out := make([]flexos.ExploreConstraint, 0, len(budgets))
	for _, s := range budgets {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			out = append(out, flexos.ExploreConstraint{Metric: metric, Op: flexos.NaturalOp(metric), Bound: v})
			continue
		}
		c, err := flexos.ParseConstraint(s)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// ParseBudgetSpec parses the -measure-budget flag syntax: "N" caps the
// run at N fresh measurements with the default seed, "N@SEED" pins the
// sampling seed as well (e.g. "2000@7"). N must be a non-negative
// integer (0 disables the budget); SEED any int64. hasSeed reports
// whether the spec carried an explicit seed, so a separate -seed flag
// can fill the default without clobbering an explicit "@SEED".
func ParseBudgetSpec(s string) (budget int, seed int64, hasSeed bool, err error) {
	spec := strings.TrimSpace(s)
	num := spec
	if at := strings.IndexByte(spec, '@'); at >= 0 {
		num = spec[:at]
		seed, err = strconv.ParseInt(strings.TrimSpace(spec[at+1:]), 10, 64)
		if err != nil {
			return 0, 0, false, fmt.Errorf("measure-budget %q: bad seed: %v", s, err)
		}
		hasSeed = true
	}
	budget, err = strconv.Atoi(strings.TrimSpace(num))
	if err != nil {
		return 0, 0, false, fmt.Errorf("measure-budget %q: want \"N\" or \"N@SEED\": %v", s, err)
	}
	if budget < 0 {
		return 0, 0, false, fmt.Errorf("measure-budget %q: budget must be >= 0", s)
	}
	if budget == 0 {
		seed, hasSeed = 0, false // no budget: the seed is meaningless
	}
	return budget, seed, hasSeed, nil
}

// validateScalar rejects option combinations a scalar -app space
// cannot serve: the -app benchmarks measure only throughput, so a
// frontier over the latency/memory axes, a non-throughput ranking, or
// a constraint on an unmeasured dimension all need a -scenario run.
func validateScalar(scenarioMode bool, metric flexos.Metric, constraints []flexos.ExploreConstraint, pareto bool) error {
	if scenarioMode {
		return nil
	}
	if pareto {
		return fmt.Errorf("-pareto requires -scenario (only scenario workloads measure the memory axis)")
	}
	if metric != flexos.MetricThroughput {
		return fmt.Errorf("-metric %s requires -scenario (the -app benchmarks measure only throughput)", metric)
	}
	for _, c := range constraints {
		if c.Metric != flexos.MetricThroughput {
			return fmt.Errorf("constraint %s requires -scenario (the -app benchmarks measure only throughput)", c)
		}
	}
	return nil
}

// ConstraintList renders the ": c1, c2" suffix of the report line.
func ConstraintList(cs []flexos.ExploreConstraint) string {
	s := ""
	for i, c := range cs {
		if i == 0 {
			s = ": "
		} else {
			s += ", "
		}
		s += c.String()
	}
	return s
}

// PrintReport writes the deterministic exploration report: it depends
// only on the space, the constraints and the (deterministic) measured
// values — never on how many measurements were served from a cache —
// so a cold run, a warm rerun and a sharded-then-merged run all print
// byte-identical reports.
func PrintReport(w io.Writer, title string, res *flexos.ExploreResult, constraints []flexos.ExploreConstraint, scenarioMode, pareto, noFeasible bool) {
	if pareto {
		front := res.ParetoFront()
		fmt.Fprintf(w, "Pareto frontier (safety x throughput x memory): %d configurations\n", len(front))
		for _, i := range front {
			m := res.Measurements[i]
			fmt.Fprintf(w, "  - %-55s %s\n", m.Config.Label(), m.Metrics)
		}
	}
	fmt.Fprintf(w, "%s: explored %d configurations under %d constraint(s)%s\n",
		title, res.Total, len(constraints), ConstraintList(constraints))
	if noFeasible {
		fmt.Fprintln(w, "no configuration satisfies every constraint")
		return
	}
	fmt.Fprintf(w, "safest configurations satisfying every constraint: %d\n", len(res.Safest))
	for _, i := range res.Safest {
		m := res.Measurements[i]
		if scenarioMode {
			fmt.Fprintf(w, "  * %-55s %s\n", m.Config.Label(), m.Metrics)
		} else {
			fmt.Fprintf(w, "  * %-55s %9.1fk req/s\n", m.Config.Label(), m.Perf/1000)
		}
	}
}

// StreamLine renders one streamed measurement exactly as
// flexos-explore -stream prints it: the full metric vector for
// scenario workloads, just the throughput for scalar -app spaces
// (whose vectors are mostly zero). flexos-serve streams these same
// bytes, which is what makes a remote -stream run byte-identical to a
// local one.
func StreamLine(scenarioMode bool, cfg *flexos.ExploreConfig, m flexos.Metrics) string {
	if scenarioMode {
		return fmt.Sprintf("measured %-55s %s", cfg.Label(), m)
	}
	return fmt.Sprintf("measured %-55s %9.1fk req/s", cfg.Label(), m.Throughput/1000)
}

// RenderReport renders the deterministic report body a local
// flexos-explore run would print to stdout (the -v listing when
// verbose, then the report). flexos-serve responses carry exactly
// this string, so a -remote run's stdout is byte-identical to the
// local oracle's.
func RenderReport(title string, res *flexos.ExploreResult, constraints []flexos.ExploreConstraint, scenarioMode, pareto, verbose, noFeasible bool) string {
	var b strings.Builder
	if verbose {
		PrintAll(&b, res)
	}
	PrintReport(&b, title, res, constraints, scenarioMode, pareto, noFeasible)
	return b.String()
}

// RunStats is the serializable form of the run statistics that
// legally differ between cold, warm and coalesced runs — the part of
// an exploration outcome that is *not* covered by the byte-identity
// guarantee and therefore travels separately from the report.
type RunStats struct {
	Evaluated int `json:"evaluated"`
	MemoHits  int `json:"memo_hits"`
	Pruned    int `json:"pruned"`
	// Skipped counts configurations a budgeted or delta run decided
	// without a value (beyond the measurement budget, or already in
	// the store); always 0 for exhaustive runs.
	Skipped int    `json:"skipped,omitempty"`
	Shard   string `json:"shard,omitempty"`
}

// StatsOf extracts the run statistics from an exploration result.
func StatsOf(res *flexos.ExploreResult) RunStats {
	st := RunStats{Evaluated: res.Evaluated, MemoHits: res.MemoHits, Skipped: res.Skipped, Shard: res.Shard.String()}
	for i := range res.Measurements {
		if res.Measurements[i].Pruned {
			st.Pruned++
		}
	}
	return st
}

// Print writes the statistics line (see PrintStats).
func (st RunStats) Print(w io.Writer, prog string) {
	rate := 0.0
	if st.Evaluated+st.MemoHits > 0 {
		rate = 100 * float64(st.MemoHits) / float64(st.Evaluated+st.MemoHits)
	}
	shard := ""
	if st.Shard != "" {
		shard = " shard " + st.Shard
	}
	skipped := ""
	if st.Skipped > 0 {
		skipped = fmt.Sprintf(", skipped %d", st.Skipped)
	}
	fmt.Fprintf(w, "%s:%s evaluated %d, cache/memo hits %d, pruned %d%s (cache hit rate %.1f%%)\n",
		prog, shard, st.Evaluated, st.MemoHits, st.Pruned, skipped, rate)
}

// PrintStats writes the run statistics that legally differ between
// cold, warm and sharded runs: fresh measurements, cache/memo hits,
// pruned configurations, and the cache hit rate. flexos-explore sends
// it to stderr so stdout stays byte-identical across cache states;
// CI's warm-explore job parses the hit rate off it.
func PrintStats(w io.Writer, prog string, res *flexos.ExploreResult) {
	StatsOf(res).Print(w, prog)
}

// PrintAll lists every decided configuration by rank (the -v listing).
// Like PrintReport it is deterministic across cache states: a value's
// provenance (fresh run vs memo vs store) is a statistic, not a
// result, so the listing distinguishes only measured from pruned and
// the hit counts stay on PrintStats' stderr line.
func PrintAll(w io.Writer, res *flexos.ExploreResult) {
	sorted := make([]int, 0, len(res.Measurements))
	for i := range res.Measurements {
		sorted = append(sorted, i)
	}
	sort.Slice(sorted, func(a, b int) bool {
		if res.Measurements[sorted[a]].Perf != res.Measurements[sorted[b]].Perf {
			return res.Measurements[sorted[a]].Perf < res.Measurements[sorted[b]].Perf
		}
		return sorted[a] < sorted[b]
	})
	for _, i := range sorted {
		m := res.Measurements[i]
		state := "measured"
		if m.Pruned {
			state = "pruned"
		}
		fmt.Fprintf(w, "%-9s %12.1f  %s\n", state, m.Perf, m.Config.Label())
	}
	fmt.Fprintln(w, "---")
}

// BudgetFlags collects repeated -budget flag occurrences (flag.Value).
type BudgetFlags []string

func (b *BudgetFlags) String() string { return fmt.Sprint([]string(*b)) }

// Set appends one -budget occurrence.
func (b *BudgetFlags) Set(s string) error {
	*b = append(*b, s)
	return nil
}
