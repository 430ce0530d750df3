package trace

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"flexos/internal/cli"
	"flexos/internal/machine"
)

// ScheduleOpts re-times a trace into a wall-clock issue schedule.
type ScheduleOpts struct {
	// Speedup divides trace-time gaps (2 = replay twice as fast;
	// <= 0 or 1 = real time). Ignored when Rate is set.
	Speedup float64
	// Rate, when > 0, discards trace timing and issues uniformly at
	// Rate requests per second, preserving trace order.
	Rate float64
	// DurationMs, when > 0, truncates the trace to its first
	// DurationMs milliseconds of trace time (before Speedup).
	DurationMs int64
}

// Scheduled is one entry of the issue schedule: the Index-th request
// of the replay, issued AtMs milliseconds after replay start.
type Scheduled struct {
	Index   int
	AtMs    int64
	Phase   string
	Request cli.Request
}

// BuildSchedule derives the issue schedule from (trace, opts) alone —
// before any connection exists — so the request sequence is a pure
// function of its inputs. Replay workers consume the schedule in index
// order whatever the connection count, which is what makes replay
// byte-identical at any -conns: concurrency changes who waits, never
// what is sent or in which order.
func BuildSchedule(t *Trace, o ScheduleOpts) []Scheduled {
	speedup := o.Speedup
	if speedup <= 0 {
		speedup = 1
	}
	sched := make([]Scheduled, 0, len(t.Events))
	for _, ev := range t.Events {
		if o.DurationMs > 0 && ev.AtMs > o.DurationMs {
			break
		}
		at := int64(float64(ev.AtMs) / speedup)
		if o.Rate > 0 {
			at = int64(float64(len(sched)) * 1000 / o.Rate)
		}
		sched = append(sched, Scheduled{Index: len(sched), AtMs: at, Phase: ev.Phase, Request: ev.Request})
	}
	return sched
}

// DumpSchedule renders the schedule one line per request — issue time,
// phase, canonical request JSON. CI byte-compares dumps produced at
// different -conns to enforce the determinism contract without
// needing a server at all.
func DumpSchedule(w io.Writer, sched []Scheduled) error {
	for _, s := range sched {
		if _, err := fmt.Fprintf(w, "%8dms %-10s %s\n", s.AtMs, s.Phase, s.Request.Encode()); err != nil {
			return err
		}
	}
	return nil
}

// ReplayOpts configures a replay run.
type ReplayOpts struct {
	// Client targets the daemon (or coordinator). Required.
	Client *cli.Client
	// Conns caps concurrent in-flight requests (<= 0: 4).
	Conns int
	// ClosedLoop ignores the schedule's timestamps: each connection
	// issues the next request as soon as its previous one completes —
	// the saturation mode benchmarks use. The default is open loop:
	// requests are issued at their scheduled times whether or not
	// earlier ones have returned (queueing when all connections are
	// busy), which is how real traffic behaves and what keeps measured
	// latency honest under overload.
	ClosedLoop bool
	// Seed is echoed into the report (it pinned the trace synthesis).
	Seed int64
}

// LatencyMs is a nearest-rank latency summary in milliseconds,
// reduced with the same machine.LatencySampler the scenario layer
// uses — one percentile definition across the whole repo.
type LatencyMs struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// latencyOf reduces nanosecond samples to the wire summary.
func latencyOf(s *machine.LatencySampler) LatencyMs {
	ms := func(ns uint64) float64 { return float64(ns) / 1e6 }
	return LatencyMs{
		Count: s.Count(),
		P50:   ms(s.Percentile(50)),
		P95:   ms(s.Percentile(95)),
		P99:   ms(s.Percentile(99)),
		Max:   ms(s.Max()),
	}
}

// PhaseReport is one phase's slice of a replay report.
type PhaseReport struct {
	Phase    string    `json:"phase"`
	Requests int       `json:"requests"`
	Failed   int       `json:"failed"`
	Latency  LatencyMs `json:"latency"`
}

// Report is the machine-readable outcome of a replay — what
// flexos-loadgen writes as JSON and CI asserts on.
type Report struct {
	Trace   string  `json:"trace"`
	Seed    int64   `json:"seed"`
	Conns   int     `json:"conns"`
	Mode    string  `json:"mode"` // "open" or "closed"
	WallMs  int64   `json:"wall_ms"`
	Issued  int     `json:"issued"`
	Ok      int     `json:"ok"`
	Failed  int     `json:"failed"`
	Retries int64   `json:"retries"`
	Rps     float64 `json:"throughput_rps"`
	// Latency aggregates every request; Phases break it out per phase
	// in first-appearance order.
	Latency LatencyMs     `json:"latency"`
	Phases  []PhaseReport `json:"phases"`
	// ResponseSum is an FNV-1a digest over the per-request response
	// reports in schedule order (failed requests contribute a fixed
	// marker). Two replays of one (trace, seed, speedup) agree on it at
	// any connection count — the determinism contract, as one number.
	ResponseSum string `json:"response_sum"`
	// Errors samples the first few failure messages for humans.
	Errors []string `json:"errors,omitempty"`
}

// Replay issues the schedule against the target and aggregates the
// report. Context cancellation stops issuing and returns the partial
// report with an error.
func Replay(ctx context.Context, name string, sched []Scheduled, o ReplayOpts) (*Report, error) {
	conns := o.Conns
	if conns <= 0 {
		conns = 4
	}
	if o.Client == nil {
		return nil, fmt.Errorf("trace: replay: no client")
	}
	mode := "open"
	if o.ClosedLoop {
		mode = "closed"
	}
	rep := &Report{Trace: name, Seed: o.Seed, Conns: conns, Mode: mode}

	// jobs carries schedule indices; its buffer holds the whole
	// schedule so the open-loop dispatcher never blocks on slow
	// workers — queueing delay lands in measured latency, where an
	// open-loop generator must put it.
	jobs := make(chan int, len(sched))
	hashes := make([]uint64, len(sched))
	var (
		mu       sync.Mutex
		all      machine.LatencySampler
		perPhase = map[string]*machine.LatencySampler{}
		order    []string
		phaseReq = map[string]int{}
		phaseErr = map[string]int{}
	)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				s := sched[idx]
				req := s.Request
				req.Stream = false
				// Open loop clocks latency from the request's due time,
				// so time spent queued behind busy connections counts;
				// closed loop issues on dequeue, so dequeue is the clock.
				t0 := time.Now()
				if !o.ClosedLoop {
					t0 = start.Add(time.Duration(s.AtMs) * time.Millisecond)
				}
				res, err := o.Client.Explore(ctx, req)
				lat := time.Since(t0)
				h := fnv.New64a()
				if err != nil {
					io.WriteString(h, "error")
				} else {
					io.WriteString(h, res.Report)
				}
				hashes[s.Index] = h.Sum64()
				mu.Lock()
				if _, seen := perPhase[s.Phase]; !seen {
					perPhase[s.Phase] = &machine.LatencySampler{}
					order = append(order, s.Phase)
				}
				phaseReq[s.Phase]++
				if err != nil {
					phaseErr[s.Phase]++
					rep.Failed++
					if len(rep.Errors) < 5 {
						rep.Errors = append(rep.Errors, err.Error())
					}
				} else {
					rep.Ok++
					all.Record(uint64(lat.Nanoseconds()))
					perPhase[s.Phase].Record(uint64(lat.Nanoseconds()))
				}
				mu.Unlock()
			}
		}()
	}

	// Dispatch in schedule order. Open loop honors each entry's issue
	// time; closed loop hands the whole schedule over and lets the
	// connections pace themselves.
	var derr error
dispatch:
	for i := range sched {
		if !o.ClosedLoop {
			if d := time.Duration(sched[i].AtMs)*time.Millisecond - time.Since(start); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					derr = ctx.Err()
					break dispatch
				}
			}
		}
		select {
		case <-ctx.Done():
			derr = ctx.Err()
			break dispatch
		default:
		}
		jobs <- i
		rep.Issued++
	}
	close(jobs)
	wg.Wait()

	rep.WallMs = time.Since(start).Milliseconds()
	if secs := float64(rep.WallMs) / 1000; secs > 0 {
		rep.Rps = float64(rep.Ok) / secs
	}
	rep.Latency = latencyOf(&all)
	for _, ph := range order {
		rep.Phases = append(rep.Phases, PhaseReport{
			Phase:    ph,
			Requests: phaseReq[ph],
			Failed:   phaseErr[ph],
			Latency:  latencyOf(perPhase[ph]),
		})
	}
	sum := fnv.New64a()
	for i := 0; i < rep.Issued; i++ {
		fmt.Fprintf(sum, "%016x\n", hashes[i])
	}
	rep.ResponseSum = fmt.Sprintf("%016x", sum.Sum64())
	return rep, derr
}
