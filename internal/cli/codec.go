package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"flexos"
	"flexos/internal/store"
)

// Request is the serializable form of one exploration request — the
// same choices the flexos-explore flags express, as a JSON document a
// flexos-serve daemon accepts over HTTP. flexos-explore builds one
// from its flags whether it runs locally or forwards with -remote, so
// the two paths cannot drift apart.
//
// The zero value normalizes to the CLI defaults: the redis -app space,
// the throughput metric, 200 requests per measurement, and the
// historical 500000 budget (parseBudgets supplies it when Budgets is
// empty).
type Request struct {
	// App selects a scalar benchmark space (redis | nginx | cross);
	// Scenario, when non-empty, selects a workload of the multi-metric
	// scenario library instead.
	App      string `json:"app,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	// Requests is the per-measurement request count for App spaces;
	// Ops overrides the scenario's default op count when > 0.
	Requests int `json:"requests,omitempty"`
	Ops      int `json:"ops,omitempty"`
	// Attack scores survival against an attack scenario ("rop-chain",
	// "addr-probe", "comp-leak", "combined") and expands the space
	// along the ASLR / control-flow-hardening axes; Profile selects
	// the machine profile ("x86", "riscv"); ASLR pins a randomization
	// level ("off", "16", "16+leak"). All three require Scenario, and
	// all three join the canonical key — requests differing only in
	// attack scenario, profile or ASLR level explore different spaces
	// and must not coalesce.
	Attack  string `json:"attack,omitempty"`
	Profile string `json:"profile,omitempty"`
	ASLR    string `json:"aslr,omitempty"`
	// Metric is the ranking metric, and the dimension plain-number
	// Budgets bound (empty: throughput).
	Metric string `json:"metric,omitempty"`
	// Budgets are the -budget constraint specs: plain bounds on Metric
	// or "metric>=bound" / "metric<=bound" forms.
	Budgets []string `json:"budgets,omitempty"`
	// Pareto adds the safety x throughput x memory frontier to the
	// report; Exhaustive disables monotonic pruning; Verbose prefixes
	// the report with the ranked listing of every configuration.
	Pareto     bool `json:"pareto,omitempty"`
	Exhaustive bool `json:"exhaustive,omitempty"`
	Verbose    bool `json:"verbose,omitempty"`
	// Stream asks the daemon for an NDJSON stream (one line per
	// measured configuration, mirroring Query.Stream order) instead of
	// a single complete response.
	Stream bool `json:"stream,omitempty"`
	// MeasureBudget caps the fresh measurements of the run and selects
	// budgeted guided search (0: exhaustive); Seed drives its sampling
	// order and is meaningless — normalized to 0 — without a budget.
	// Both join the canonical key: requests differing only in budget or
	// seed decide different configurations and must not coalesce.
	MeasureBudget int   `json:"measure_budget,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	// DeltaOnly re-measures only configurations absent from the
	// daemon's store, skipping the rest (delta re-exploration).
	// Incompatible with MeasureBudget.
	DeltaOnly bool `json:"delta_only,omitempty"`
	// Shard restricts the run to one deterministic slice of the space,
	// in the CLI "index/count" syntax.
	Shard string `json:"shard,omitempty"`
	// Workers is the engine worker count (<= 0: the server's default).
	// It never changes result bytes — requests differing only in
	// Workers coalesce onto one engine pass.
	Workers int `json:"workers,omitempty"`
	// TimeoutMs bounds how long this caller waits, in milliseconds
	// (0: no deadline). It cancels only the caller's subscription; a
	// coalesced run keeps serving its other subscribers.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// IncludeRecords asks the daemon to attach the run's partial-result
	// codec to the final response: one (memo key, metrics) Record per
	// valued configuration. A cluster coordinator sets it on the shard
	// sub-requests it dispatches, then replays the records into its own
	// memo before re-ranking. Like Workers it never changes report
	// bytes, so it is excluded from the canonical key — a sub-request
	// coalesces with an identical user request already in flight.
	IncludeRecords bool `json:"include_records,omitempty"`
}

// Wire guardrails for DecodeRequest: a serving daemon must bound the
// work one request can name. The local CLI paths do not apply them.
const (
	// MaxRequestBytes is the request-body cap flexos-serve enforces.
	MaxRequestBytes = 1 << 20
	maxRequests     = 1_000_000
	maxOps          = 10_000_000
	maxBudgets      = 16
)

// BuildInfo carries everything about a built Request that the
// response rendering needs beyond the Query itself.
type BuildInfo struct {
	// Title heads the report ("redis-get90", "cross[shard 1/3]", …).
	Title string
	// ScenarioMode is true when measurements carry full metric vectors.
	ScenarioMode bool
	// Metric is the resolved ranking metric; Constraints the parsed
	// budget conjunction, in request order (rendering order).
	Metric      flexos.Metric
	Constraints []flexos.ExploreConstraint
	// Prune echoes the derived pruning choice: on unless Exhaustive, or
	// Pareto without a measurement budget (a budgeted run prunes under
	// -pareto too — branch-and-bound is how it finds the frontier).
	Prune bool
	// Namespace is the query's composed memo namespace
	// (Query.MemoNamespace) — the prefix of every memo/store key the
	// run touches, and what RecordsOf keys the partial-result codec by.
	Namespace string
}

// Normalize fills CLI defaults in place so that equal requests encode
// equally: an empty selection becomes the redis app space at the
// default 200 requests, the metric name is made explicit, and
// senseless negatives are clamped. It is idempotent — DecodeRequest's
// decode → normalize → encode → decode round-trip is stable.
func (r *Request) Normalize() {
	if r.App == "" && r.Scenario == "" {
		r.App = "redis"
	}
	if r.Scenario != "" {
		r.App = ""
		r.Requests = 0
		// Canonicalize phase-schedule spellings ("a *1 + b" →
		// "a+b") so equal schedules encode — and coalesce — alike.
		// An unparsable spec is left untouched for Build to reject.
		if flexos.IsPhasedSpec(r.Scenario) {
			if ph, err := flexos.ParsePhased(r.Scenario); err == nil {
				r.Scenario = ph.Name()
			}
		}
	} else {
		r.Ops = 0
		if r.Requests <= 0 {
			r.Requests = 200
		}
		// The attack axes require a scenario; Build rejects them, so
		// normalization leaves them untouched for the error message.
	}
	// Canonicalize attack-axis spellings so equal requests encode — and
	// coalesce — alike: scenario aliases by case, "risc-v"/"rv64" ≡
	// "riscv" (and the default "x86" ≡ absent, which stamps nothing),
	// "0"/"none" ≡ "off". An explicit "off" is NOT dropped: under an
	// attack it pins the space to ASLR-off instead of sweeping the
	// ladder, a genuinely different space. Unparsable values are left
	// untouched for Build to reject.
	if r.Attack != "" {
		if att, ok := flexos.AttackByName(r.Attack); ok {
			r.Attack = att.Name()
		}
	}
	if r.Profile != "" {
		if canon, err := flexos.CanonicalProfile(r.Profile); err == nil {
			r.Profile = canon
		}
	}
	if r.ASLR != "" {
		if a, err := flexos.ParseASLR(r.ASLR); err == nil {
			r.ASLR = a.String()
		}
	}
	if r.Metric == "" {
		r.Metric = string(flexos.MetricThroughput)
	}
	if len(r.Budgets) == 0 {
		r.Budgets = nil // an empty list means the default budget; encode the two alike
	}
	if r.Workers < 0 {
		r.Workers = 0
	}
	if r.MeasureBudget < 0 {
		r.MeasureBudget = 0
	}
	if r.MeasureBudget == 0 {
		r.Seed = 0 // an unbudgeted run ignores the seed; encode the two alike
	}
	if r.Ops < 0 {
		r.Ops = 0
	}
	if r.TimeoutMs < 0 {
		r.TimeoutMs = 0
	}
}

// Build normalizes the request and assembles the flexos.Query it
// describes, mirroring exactly what the flexos-explore flag path
// does: space and workload, budget constraints, ranking, workers,
// derived pruning, shard (with the title suffix). It does not attach a
// memo or cache — the caller owns the caching tier.
func (r *Request) Build() (*flexos.Query, *BuildInfo, error) {
	r.Normalize()
	metric, err := flexos.ParseMetric(r.Metric)
	if err != nil {
		return nil, nil, err
	}
	constraints, err := parseBudgets(r.Budgets, metric)
	if err != nil {
		return nil, nil, err
	}
	q, title, scenarioMode, err := r.query()
	if err != nil {
		return nil, nil, err
	}
	if err := validateScalar(scenarioMode, metric, constraints, r.Pareto); err != nil {
		return nil, nil, err
	}
	if r.Attack == "" {
		if metric == flexos.MetricSurvival {
			return nil, nil, errors.New("metric survival requires an attack scenario (only attack runs score survival)")
		}
		for _, c := range constraints {
			if c.Metric == flexos.MetricSurvival {
				return nil, nil, fmt.Errorf("constraint %s requires an attack scenario (only attack runs score survival)", c)
			}
		}
	}
	if r.DeltaOnly && r.MeasureBudget > 0 {
		return nil, nil, errors.New("delta_only and measure_budget are mutually exclusive")
	}
	for _, c := range constraints {
		q.Constrain(c.Metric, c.Op, c.Bound)
	}
	// -pareto normally disables pruning so the frontier ranks the full
	// space; a budgeted run never measures the full space anyway, and
	// branch-and-bound is precisely what finds the frontier within
	// budget — so the budget wins the derivation.
	prune := !r.Exhaustive && (!r.Pareto || r.MeasureBudget > 0)
	q.RankBy(metric).Workers(r.Workers).Prune(prune)
	if r.MeasureBudget > 0 {
		q.MeasureBudget(r.MeasureBudget).Seed(r.Seed)
	}
	if r.DeltaOnly {
		q.DeltaOnly()
	}
	if r.Shard != "" {
		sh, err := flexos.ParseShard(r.Shard)
		if err != nil {
			return nil, nil, err
		}
		q.Shard(sh.Index, sh.Count)
		if s := sh.String(); s != "" {
			title = fmt.Sprintf("%s[shard %s]", title, s)
		}
	}
	return q, &BuildInfo{
		Title:        title,
		ScenarioMode: scenarioMode,
		Metric:       metric,
		Constraints:  constraints,
		Prune:        prune,
		Namespace:    q.MemoNamespace(),
	}, nil
}

// CanonicalKey is the request's coalescing identity: the canonical
// key of the query it builds (space hash ⊕ namespace ⊕ constraints ⊕
// prune ⊕ shard — see Query.CanonicalKey). Requests differing only in
// Workers, Verbose, Stream or TimeoutMs share a key, because none of
// those can change result bytes.
func (r Request) CanonicalKey() (string, error) {
	q, _, err := r.Build()
	if err != nil {
		return "", err
	}
	return q.CanonicalKey(), nil
}

// Encode renders the canonical JSON of the normalized request.
func (r Request) Encode() []byte {
	r.Normalize()
	b, err := json.Marshal(r)
	if err != nil {
		// Request has no unmarshalable field; keep the API infallible.
		panic(fmt.Sprintf("cli: encode request: %v", err))
	}
	return b
}

// DecodeRequest parses and fully validates one wire request: strict
// JSON (unknown fields and trailing garbage rejected), normalized
// defaults, serving guardrails on the work a request may name, and a
// complete Build so a request that decodes is a request that runs.
// Malformed input returns an error, never a panic, and
// decode → Encode → decode round-trips are stable.
func DecodeRequest(data []byte) (Request, error) {
	r, _, _, err := DecodeRequestQuery(data)
	return r, err
}

// DecodeRequestQuery is DecodeRequest returning the built query and
// its rendering info as well, so a serving hot path validates and
// assembles in one pass instead of building the space twice.
func DecodeRequestQuery(data []byte) (Request, *flexos.Query, *BuildInfo, error) {
	var r Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Request{}, nil, nil, fmt.Errorf("cli: decode request: %w", err)
	}
	if dec.More() {
		return Request{}, nil, nil, errors.New("cli: decode request: trailing data after the JSON document")
	}
	r.Normalize()
	if r.Requests > maxRequests {
		return Request{}, nil, nil, fmt.Errorf("cli: decode request: requests %d exceeds the serving cap %d", r.Requests, maxRequests)
	}
	if r.Ops > maxOps {
		return Request{}, nil, nil, fmt.Errorf("cli: decode request: ops %d exceeds the serving cap %d", r.Ops, maxOps)
	}
	if len(r.Budgets) > maxBudgets {
		return Request{}, nil, nil, fmt.Errorf("cli: decode request: %d budgets exceeds the serving cap %d", len(r.Budgets), maxBudgets)
	}
	q, info, err := r.Build()
	if err != nil {
		return Request{}, nil, nil, fmt.Errorf("cli: decode request: %w", err)
	}
	return r, q, info, nil
}

// Response is one wire message of the serving protocol. A complete
// response is a single Response document carrying Key, Report and
// Stats (or Error). A streaming response is NDJSON: one Response per
// line — each measured configuration as {"line": …} in Query.Stream
// order, then a final document carrying Report and Stats (or Error).
type Response struct {
	// Key echoes the request's canonical (coalescing) key.
	Key string `json:"key,omitempty"`
	// Line is one streamed measurement, rendered exactly as a local
	// flexos-explore -stream run prints it.
	Line string `json:"line,omitempty"`
	// Report is the deterministic report body — byte-identical to the
	// local oracle's stdout for the same request.
	Report string `json:"report,omitempty"`
	// Stats carries the run statistics (legally differ between cold,
	// warm and coalesced runs); travels outside Report so byte
	// comparison of reports stays meaningful.
	Stats *RunStats `json:"stats,omitempty"`
	// Records is the run's partial-result codec, attached to the final
	// response when the request set IncludeRecords: one (memo key,
	// metrics) pair per valued configuration, in enumeration order.
	Records []Record `json:"records,omitempty"`
	// Error is set instead of Report when the exploration failed.
	Error string `json:"error,omitempty"`
}

// Record is one entry of the partial-result codec: a measurement
// addressed by its full memo/store key (namespace NUL-joined with the
// configuration's canonical identity — see flexos.MemoKey), so any
// node exploring the same space can replay it into its own memo or
// store. It is what a worker daemon returns to a coordinator and what
// the store-sync endpoint (/v1/store/pull) ships between nodes.
type Record = store.Record

// RecordsOf renders a finished run into the partial-result codec: one
// Record per valued measurement, keyed under the given memo namespace
// (BuildInfo.Namespace), deduplicated by key in enumeration order —
// canonical twins collapse to one record, pruned or skipped
// configurations ship none. Deterministic: the same result always
// renders the same records in the same order.
func RecordsOf(namespace string, res *flexos.ExploreResult) []Record {
	if res == nil {
		return nil
	}
	seen := make(map[string]struct{}, len(res.Measurements))
	recs := make([]Record, 0, len(res.Measurements))
	for i := range res.Measurements {
		m := &res.Measurements[i]
		if !m.Evaluated {
			continue
		}
		key := flexos.MemoKey(namespace, m.Config)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		recs = append(recs, Record{Key: key, Metrics: m.Metrics})
	}
	return recs
}

// PullPage is one page of the store-sync protocol
// (GET /v1/store/pull?since=N&gen=G): the records appended to the
// serving node's sync log after cursor position N, a new cursor, and
// whether more pages follow. Gen identifies the log incarnation — a
// restarted daemon rebuilds its log in a different order, so a stale
// generation resets the puller to cursor 0 rather than shipping a
// misaligned suffix.
type PullPage struct {
	Gen     string   `json:"gen"`
	Cursor  int      `json:"cursor"`
	More    bool     `json:"more,omitempty"`
	Records []Record `json:"records,omitempty"`
}

// JoinRequest is the body of POST /v1/cluster/join: a worker daemon
// announcing the base URL the coordinator should dispatch to.
type JoinRequest struct {
	URL string `json:"url"`
}
