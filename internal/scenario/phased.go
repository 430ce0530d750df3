package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"flexos/internal/core"
)

// Phased composes library scenarios into a time-varying workload: an
// ordered schedule of phases, each a library scenario scaled by an
// integer weight. "redis-get90*3+redis-get50" runs three rounds of the
// redis-get90 mix followed by one round of redis-get50 on the same
// image, modelling traffic whose composition shifts over time (a
// diurnal read-heavy night followed by a mixed day, a flash crowd
// changing the GET ratio mid-trace).
//
// All phases must drive the same application and therefore the same
// Figure-6 component quadruple: a phase schedule changes what the
// traffic looks like, never what the image links, so one configuration
// can be measured once under the whole schedule.
//
// The merged metric vector uses worst-case provisioning semantics —
// the numbers an operator would size the deployment by:
//
//   - Ops, Cycles, Crossings sum across phases (total work done);
//   - Throughput is the schedule-wide rate: total ops divided by the
//     summed per-phase run time (ops_i / throughput_i), i.e. the
//     harmonic ops-weighted mean, not the arithmetic mean;
//   - latency percentiles (P50us, P99us, MaxUs) take the worst phase,
//     because an SLO over a schedule is only as good as its worst
//     phase;
//   - PeakMemBytes and BootCycles take the max (each phase run boots a
//     private image; the schedule needs the largest footprint).
type Phased struct {
	parts []phasePart
}

// phasePart is one resolved phase: the scenario to run and the op
// count it executes (the scenario's op budget scaled by the weight).
type phasePart struct {
	sc     *Scenario
	weight int
	ops    int
}

var _ Workload = (*Phased)(nil)

// Phase schedule guards: a serving daemon parses specs off the wire,
// so both the phase count and the per-phase weight are bounded to keep
// one request's work proportional to its byte size.
const (
	maxPhases      = 16
	maxPhaseWeight = 1000
)

// ParsePhased parses a phase-schedule spec: scenario names joined by
// '+', each optionally scaled by an integer weight with '*', e.g.
// "redis-get90*3+redis-get50". Weights default to 1; every scenario
// must exist in the library, expose a Figure-6 quadruple, and share
// one application. The phase order is preserved — a schedule is a
// timeline, so "a+b" and "b+a" are distinct workloads.
func ParsePhased(spec string) (*Phased, error) {
	fields := strings.Split(spec, "+")
	if len(fields) > maxPhases {
		return nil, fmt.Errorf("phased %q: %d phases exceeds the limit of %d", spec, len(fields), maxPhases)
	}
	p := &Phased{parts: make([]phasePart, 0, len(fields))}
	for _, f := range fields {
		name, weight := strings.TrimSpace(f), 1
		if star := strings.IndexByte(name, '*'); star >= 0 {
			w, err := strconv.Atoi(strings.TrimSpace(name[star+1:]))
			if err != nil {
				return nil, fmt.Errorf("phased %q: bad weight in %q: %v", spec, f, err)
			}
			if w < 1 || w > maxPhaseWeight {
				return nil, fmt.Errorf("phased %q: weight %d out of range [1,%d]", spec, w, maxPhaseWeight)
			}
			name, weight = strings.TrimSpace(name[:star]), w
		}
		if name == "" {
			return nil, fmt.Errorf("phased %q: empty phase", spec)
		}
		sc, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("phased %q: unknown scenario %q", spec, name)
		}
		if _, ok := sc.Quad(); !ok {
			return nil, fmt.Errorf("phased %q: scenario %q has no four-component space", spec, name)
		}
		p.parts = append(p.parts, phasePart{sc: sc, weight: weight, ops: sc.Ops() * weight})
	}
	if len(p.parts) == 0 {
		return nil, fmt.Errorf("phased %q: empty schedule", spec)
	}
	first := p.parts[0].sc
	for _, part := range p.parts[1:] {
		if part.sc.App() != first.App() {
			return nil, fmt.Errorf("phased %q: phases mix applications %q and %q (one image serves the whole schedule)",
				spec, first.App(), part.sc.App())
		}
	}
	return p, nil
}

// IsPhasedSpec reports whether a -scenario selector should be parsed
// as a phase schedule rather than a plain library name: any spec
// containing a '+' (phase separator) or '*' (weight) is phased.
func IsPhasedSpec(spec string) bool {
	return strings.ContainsAny(spec, "+*")
}

// Name renders the canonical spec: phases joined by '+', weights > 1
// rendered as "*w". ParsePhased(p.Name()) reproduces p, and Name is a
// fixpoint — parsing and re-rendering any accepted spelling (extra
// spaces, explicit "*1") yields this canonical form.
func (p *Phased) Name() string {
	var b strings.Builder
	for i, part := range p.parts {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(part.sc.Name())
		if part.weight != 1 {
			b.WriteByte('*')
			b.WriteString(strconv.Itoa(part.weight))
		}
	}
	return b.String()
}

// Description summarizes the schedule.
func (p *Phased) Description() string {
	return fmt.Sprintf("phase schedule over %d phase(s) of %s traffic", len(p.parts), p.parts[0].sc.App())
}

// App returns the application every phase drives.
func (p *Phased) App() string { return p.parts[0].sc.App() }

// Quad returns the shared Figure-6 component quadruple.
func (p *Phased) Quad() ([4]string, bool) { return p.parts[0].sc.Quad() }

// Components returns the component list an image for the schedule must
// link (identical across phases, since they share one application).
func (p *Phased) Components() []string { return p.parts[0].sc.Components() }

// Ops returns the total primary operations one full schedule executes.
func (p *Phased) Ops() int {
	total := 0
	for _, part := range p.parts {
		total += part.ops
	}
	return total
}

// Phases returns the schedule as (scenario name, op count) pairs, in
// order — what a synthesizer or report renderer needs to narrate the
// timeline.
func (p *Phased) Phases() []struct {
	Scenario string
	Ops      int
} {
	out := make([]struct {
		Scenario string
		Ops      int
	}, len(p.parts))
	for i, part := range p.parts {
		out[i].Scenario = part.sc.Name()
		out[i].Ops = part.ops
	}
	return out
}

// WithOps returns a copy of the schedule whose total op budget is n,
// split across phases proportionally to their weights (largest-first
// remainder, every phase at least one op). The -ops flag therefore
// scales a whole schedule the way it scales a single scenario.
func (p *Phased) WithOps(n int) *Phased {
	if n < 1 {
		n = 1
	}
	totalW := 0
	for _, part := range p.parts {
		totalW += part.weight
	}
	c := &Phased{parts: make([]phasePart, len(p.parts))}
	copy(c.parts, p.parts)
	assigned := 0
	for i := range c.parts {
		ops := n * c.parts[i].weight / totalW
		if ops < 1 {
			ops = 1
		}
		c.parts[i].ops = ops
		assigned += ops
	}
	// Hand the rounding remainder to the earliest phases, one op each,
	// so the split is deterministic and sums to n when possible.
	for i := 0; assigned < n && i < len(c.parts); i, assigned = i+1, assigned+1 {
		c.parts[i].ops++
	}
	return c
}

// MemoKey namespaces the schedule's measurements: "phased[" plus each
// phase's own memo key ("name/ops") joined by '+'. Two schedules — or
// one schedule at two op budgets — never share a namespace, because
// the merged vectors differ even on identical images; and no schedule
// ever collides with a plain scenario's "name/ops" namespace.
func (p *Phased) MemoKey() string {
	var b strings.Builder
	b.WriteString("phased[")
	for i, part := range p.parts {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%s/%d", part.sc.Name(), part.ops)
	}
	b.WriteByte(']')
	return b.String()
}

// Run implements Workload: it runs every phase on the spec in schedule
// order and merges the per-phase vectors under the worst-case
// provisioning semantics documented on Phased.
func (p *Phased) Run(spec core.ImageSpec) (Metrics, error) {
	var agg Metrics
	var seconds float64
	for _, part := range p.parts {
		m, err := part.sc.WithOps(part.ops).Run(spec)
		if err != nil {
			return Metrics{}, fmt.Errorf("phased %s: %w", p.Name(), err)
		}
		agg.Ops += m.Ops
		agg.Cycles += m.Cycles
		agg.Crossings += m.Crossings
		if m.Throughput > 0 {
			seconds += float64(m.Ops) / m.Throughput
		}
		agg.P50us = max(agg.P50us, m.P50us)
		agg.P99us = max(agg.P99us, m.P99us)
		agg.MaxUs = max(agg.MaxUs, m.MaxUs)
		agg.PeakMemBytes = max(agg.PeakMemBytes, m.PeakMemBytes)
		agg.BootCycles = max(agg.BootCycles, m.BootCycles)
	}
	if seconds > 0 {
		agg.Throughput = float64(agg.Ops) / seconds
	}
	return agg, nil
}
