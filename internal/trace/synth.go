package trace

import (
	"fmt"

	"flexos/internal/cli"
)

// MixEntry is one weighted request of a phase's traffic mix.
type MixEntry struct {
	// Weight is the relative draw probability (>= 1).
	Weight int
	// Request is the exploration request issued when this entry is
	// drawn. It is normalized at synthesis time.
	Request cli.Request
}

// PhaseSpec describes one traffic regime of a synthetic trace.
type PhaseSpec struct {
	// Name labels the phase in events and replay reports.
	Name string
	// DurationMs is the phase length in trace time.
	DurationMs int64
	// Rate is the mean arrival rate in requests per second of trace
	// time. Arrivals are jittered uniformly in [0.5, 1.5] of the mean
	// interval — bursty enough to be interesting, bounded enough to
	// stay deterministic across platforms.
	Rate float64
	// Mix is the weighted request mix the phase draws from.
	Mix []MixEntry
}

// SynthSpec is a full synthesis recipe: an ordered phase schedule and
// the seed that pins every arrival time and mix draw.
type SynthSpec struct {
	Name        string
	Description string
	Seed        int64
	Phases      []PhaseSpec
}

// rng is splitmix64: tiny, seedable, and stable across platforms and
// Go releases — unlike math/rand, whose stream is not a format
// guarantee. Trace synthesis must be reproducible byte-for-byte from
// (spec, seed) forever, so the generator is pinned here.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1), rounded explicitly so
// that, inlined, it never fuses into a caller's multiply-add.
func (r *rng) float() float64 { return float64(float64(r.next()>>11) / (1 << 53)) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Synthesize renders a spec into a trace. The same spec always yields
// the same trace: arrivals and mix draws come from a splitmix64 stream
// seeded by (Seed, phase index), so editing one phase never perturbs
// the others.
func Synthesize(spec SynthSpec) (*Trace, error) {
	if len(spec.Phases) == 0 {
		return nil, fmt.Errorf("trace: synthesize %q: no phases", spec.Name)
	}
	t := &Trace{Name: spec.Name, Seed: spec.Seed, Description: spec.Description}
	var baseMs int64
	for pi, ph := range spec.Phases {
		if ph.DurationMs <= 0 || ph.Rate <= 0 {
			return nil, fmt.Errorf("trace: synthesize %q: phase %q needs positive duration and rate", spec.Name, ph.Name)
		}
		if len(ph.Mix) == 0 {
			return nil, fmt.Errorf("trace: synthesize %q: phase %q has an empty mix", spec.Name, ph.Name)
		}
		totalW := 0
		for _, m := range ph.Mix {
			if m.Weight < 1 {
				return nil, fmt.Errorf("trace: synthesize %q: phase %q has a non-positive mix weight", spec.Name, ph.Name)
			}
			totalW += m.Weight
		}
		r := rng{s: uint64(spec.Seed)*0x9e3779b97f4a7c15 + uint64(pi)}
		meanMs := 1000 / ph.Rate
		// Start half a mean interval in so a phase boundary is not
		// always an arrival, then jitter each gap in [0.5, 1.5]·mean.
		at := 0.5 * meanMs
		for at < float64(ph.DurationMs) {
			draw := r.intn(totalW)
			var req cli.Request
			for _, m := range ph.Mix {
				if draw -= m.Weight; draw < 0 {
					req = m.Request
					break
				}
			}
			req.Normalize()
			t.Events = append(t.Events, Event{AtMs: baseMs + int64(at), Phase: ph.Name, Request: req})
			at += float64((0.5 + r.float()) * meanMs) // rounded: no FMA on any GOARCH
		}
		baseMs += ph.DurationMs
	}
	if len(t.Events) == 0 {
		return nil, fmt.Errorf("trace: synthesize %q: schedule produced no events (rates too low for the durations)", spec.Name)
	}
	return t, nil
}

// Shapes the synthesizer ships. Each returns a spec whose phase
// durations scale to durationMs and whose every byte is pinned by
// seed. The mixes draw on the scenario library — including phased
// schedules, so a synthetic trace exercises the time-varying workload
// path end to end.
var Shapes = map[string]func(seed, durationMs int64) SynthSpec{
	"diurnal": DiurnalSpec,
	"flash":   FlashSpec,
	"shift":   ShiftSpec,
}

// DiurnalSpec models a day compressed into durationMs: a quiet
// read-heavy night, a busy mixed day ramp, and an evening flash crowd
// that narrows the mix and triples the rate.
func DiurnalSpec(seed, durationMs int64) SynthSpec {
	night, day := durationMs*2/5, durationMs*2/5
	crowd := durationMs - night - day
	return SynthSpec{
		Name:        "diurnal",
		Description: "night / day ramp / evening flash crowd over redis traffic",
		Seed:        seed,
		Phases: []PhaseSpec{
			{Name: "night", DurationMs: night, Rate: 1.0, Mix: []MixEntry{
				{Weight: 3, Request: cli.Request{Scenario: "redis-get100"}},
				{Weight: 1, Request: cli.Request{Scenario: "redis-get90"}},
			}},
			{Name: "day", DurationMs: day, Rate: 2.0, Mix: []MixEntry{
				{Weight: 2, Request: cli.Request{Scenario: "redis-get90"}},
				{Weight: 2, Request: cli.Request{Scenario: "redis-get50"}},
				{Weight: 1, Request: cli.Request{Scenario: "redis-get90*2+redis-get50"}},
				{Weight: 1, Request: cli.Request{Scenario: "redis-pipe8", Budgets: []string{"throughput>=200000"}}},
			}},
			{Name: "crowd", DurationMs: crowd, Rate: 3.0, Mix: []MixEntry{
				{Weight: 3, Request: cli.Request{Scenario: "redis-get50"}},
				{Weight: 1, Request: cli.Request{Scenario: "redis-get50+redis-pipe8", Pareto: true}},
			}},
		},
	}
}

// FlashSpec models steady nginx traffic interrupted by a flash crowd.
func FlashSpec(seed, durationMs int64) SynthSpec {
	steady := durationMs * 3 / 5
	flash := durationMs/5 + 1
	cool := durationMs - steady - flash
	return SynthSpec{
		Name:        "flash",
		Description: "steady nginx traffic, a flash crowd, and a cooldown",
		Seed:        seed,
		Phases: []PhaseSpec{
			{Name: "steady", DurationMs: steady, Rate: 1.2, Mix: []MixEntry{
				{Weight: 2, Request: cli.Request{Scenario: "nginx-static"}},
				{Weight: 1, Request: cli.Request{Scenario: "nginx-keep75"}},
			}},
			{Name: "flash", DurationMs: flash, Rate: 4.0, Mix: []MixEntry{
				{Weight: 1, Request: cli.Request{Scenario: "nginx-keepalive"}},
			}},
			{Name: "cooldown", DurationMs: cool, Rate: 1.0, Mix: []MixEntry{
				{Weight: 1, Request: cli.Request{Scenario: "nginx-static+nginx-keepalive*2"}},
			}},
		},
	}
}

// ShiftSpec models a workload whose composition flips mid-trace — the
// regime where the best configuration shifts with the traffic (the
// adaptive-reconfig story).
func ShiftSpec(seed, durationMs int64) SynthSpec {
	half := durationMs / 2
	return SynthSpec{
		Name:        "shift",
		Description: "read-heavy first half, pipelined-write second half",
		Seed:        seed,
		Phases: []PhaseSpec{
			{Name: "reads", DurationMs: half, Rate: 2.0, Mix: []MixEntry{
				{Weight: 3, Request: cli.Request{Scenario: "redis-get100"}},
				{Weight: 1, Request: cli.Request{Scenario: "redis-get90"}},
			}},
			{Name: "writes", DurationMs: durationMs - half, Rate: 2.0, Mix: []MixEntry{
				{Weight: 2, Request: cli.Request{Scenario: "redis-pipe8"}},
				{Weight: 1, Request: cli.Request{Scenario: "redis-get50*2+redis-pipe8"}},
			}},
		},
	}
}
