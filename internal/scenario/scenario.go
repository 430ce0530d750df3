// Package scenario provides the multi-metric workload layer of the
// design-space exploration: a library of mixed application scenarios
// (Redis GET/SET ratios and pipelining, Nginx static/keepalive mixes,
// iPerf stream counts, SQLite transaction batches) that each run on a
// built image and produce a full Metrics vector — throughput, latency
// percentiles sampled from the deterministic cycle clock, peak simulated
// memory, and boot cost.
//
// The paper's exploration (§5) ranks configurations by a single scalar
// "comparable across configurations and runs". Real isolation decisions
// trade throughput against tail latency, memory footprint and boot time;
// this package supplies the vectors and the Metric selectors that let
// internal/explore budget on any dimension and extract Pareto frontiers.
package scenario

import (
	"fmt"
	"sort"
	"sync"

	"flexos/internal/core"
	"flexos/internal/machine"
	"flexos/internal/netstack"
)

// Workload is anything that can run on a built image configuration and
// report a full metric vector. Scenario is the shipped implementation;
// tests and callers may provide their own.
type Workload interface {
	// Name identifies the workload (memo-key namespace, CLI selector).
	Name() string
	// Description is a one-line human summary.
	Description() string
	// Run builds an image for the spec, executes the workload, and
	// returns its metric vector. Implementations must be deterministic
	// and safe for concurrent use (each call builds a private image).
	Run(spec core.ImageSpec) (Metrics, error)
}

// Scenario is one entry of the shipped workload library.
type Scenario struct {
	name  string
	desc  string
	app   string   // application selector: "redis", "nginx", "iperf", "sqlite"
	comps []string // full component list (without the TCB), application first
	ops   int      // primary operations per run
	drv   driver
	// observe, when set, sees each run's image after its metrics are
	// collected.
	observe func(*core.Image)
}

var _ Workload = (*Scenario)(nil)

// Name returns the scenario identifier, e.g. "redis-get90".
func (s *Scenario) Name() string { return s.name }

// Description returns the one-line summary.
func (s *Scenario) Description() string { return s.desc }

// App returns the application the scenario drives ("redis", "nginx",
// "iperf" or "sqlite").
func (s *Scenario) App() string { return s.app }

// Ops returns the number of primary operations one run executes.
func (s *Scenario) Ops() int { return s.ops }

// Quad returns the application's Figure-6 component quadruple (app,
// libc, scheduler, network stack) when it has one — the shape the
// Fig6Space generator partitions. SQLite images link six components and
// report ok == false.
func (s *Scenario) Quad() (quad [4]string, ok bool) {
	if len(s.comps) != len(quad) {
		return quad, false
	}
	return [4]string(s.comps), true
}

// Components returns the full component list an image for this scenario
// must link, excluding the TCB libraries.
func (s *Scenario) Components() []string { return append([]string(nil), s.comps...) }

// WithOps returns a copy of the scenario that executes n primary
// operations per run (n is clamped to at least one batch). Callers that
// share an exploration memo across runs must namespace it with the op
// count, since metric vectors depend on it.
func (s *Scenario) WithOps(n int) *Scenario {
	if n < 1 {
		n = 1
	}
	c := *s
	c.ops = n
	return &c
}

// Observe returns a copy of the scenario that hands each run's image to
// fn once the run's metrics are collected, so a caller can inspect
// state the metric vector does not carry, such as per-gate call counts
// (Image.Report). fn must not drive the image further; the metrics are
// already taken. The image is valid only during the callback: the run
// releases it when fn returns, so fn must copy out what it keeps.
func (s *Scenario) Observe(fn func(*core.Image)) *Scenario {
	c := *s
	c.observe = fn
	return &c
}

// MemoKey returns the namespace under which the scenario's
// measurements may be cached in an exploration memo: the scenario name
// plus the operation count, e.g. "redis-get90/240". Two scenarios (or
// the same scenario at different op counts) never share a namespace,
// because their metric vectors differ even on identical images.
func (s *Scenario) MemoKey() string { return fmt.Sprintf("%s/%d", s.name, s.ops) }

// Run implements Workload.
func (s *Scenario) Run(spec core.ImageSpec) (Metrics, error) {
	m, err := s.drive(spec)
	if err != nil {
		return Metrics{}, fmt.Errorf("scenario %s: %w", s.name, err)
	}
	return m, nil
}

// driver is what one application's measurement loop varies: the
// scenario constructors in runners.go fill it in and drive runs it.
type driver struct {
	// catalog is what every run builds its image from.
	catalog *core.Catalog
	// completed reads a run's completion count from its image once
	// every operation has run.
	completed func(*core.Image) uint64
	// setup is the application's first call and args its arguments.
	// Its result word addresses the NIC requests.
	setup core.Sym
	args  core.Args
	// request, when set, builds operation i's NIC request, reusing b;
	// every request is enqueued before measurement begins.
	request func(b []byte, i int) []byte
	// span runs operations i through i+n-1 as one latency sample, where
	// n is per except for a shorter last span.
	per  int
	span func(ctx *core.Ctx, i, n int) error
	// unit is the amount each operation adds to the completion count.
	unit uint64
}

// drive runs one measurement of the scenario on a fresh image for spec:
// build, set up, enqueue every request, time the operations span by
// span, check that each completed, and collect the metric vector. The
// image is released once the vector is collected, or on error, so the
// next measurement builds on its host memory.
func (s *Scenario) drive(spec core.ImageSpec) (Metrics, error) {
	d := &s.drv
	img, err := core.Build(d.catalog, spec)
	if err != nil {
		return Metrics{}, err
	}
	defer img.Release()
	ctx, err := img.NewContext(s.name, s.comps[0])
	if err != nil {
		return Metrics{}, err
	}
	sv, err := ctx.Call(d.setup, d.args)
	if err != nil {
		return Metrics{}, err
	}
	boot := img.Mach.Clock.Cycles()

	ops := s.ops
	if d.request != nil {
		// Inject the whole request stream first (the NIC side), in the
		// order the loop will consume it. The stack copies each
		// request, so one buffer serves them all, and its queue is
		// reserved for the stream on the host side.
		enq := core.Words(sv.W)
		if st, ok := img.State(netstack.Name).(*netstack.State); ok {
			st.ReserveRx(int(enq.W[0]), ops)
		}
		for i := 0; i < ops; i++ {
			enq.B = d.request(enq.B[:0], i)
			if _, err := ctx.Call(symRxEnqueue, enq); err != nil {
				return Metrics{}, err
			}
		}
	}

	lat := samplers.Get().(*machine.LatencySampler)
	defer samplers.Put(lat)
	lat.Reset()
	lat.Grow((ops + d.per - 1) / d.per)
	startCycles := img.Mach.Clock.Cycles()
	startCross := img.Crossings()
	for i := 0; i < ops; i += d.per {
		n := min(d.per, ops-i)
		if err := lat.Span(&img.Mach.Clock, func() error { return d.span(ctx, i, n) }); err != nil {
			return Metrics{}, err
		}
	}
	if got, want := d.completed(img), uint64(ops)*d.unit; got != want {
		return Metrics{}, fmt.Errorf("%s: completed %d, want %d", s.app, got, want)
	}
	return s.collect(img, lat, boot, startCycles, startCross), nil
}

// samplers recycles the latency samplers of finished measurements.
var samplers = sync.Pool{New: func() any { return new(machine.LatencySampler) }}

// registry holds the shipped library, populated in runners.go.
var registry = map[string]*Scenario{}

func register(s *Scenario) *Scenario {
	if _, dup := registry[s.name]; dup {
		panic("scenario: duplicate " + s.name)
	}
	registry[s.name] = s
	return s
}

// All returns the shipped scenario library, sorted by name.
func All() []*Scenario {
	out := make([]*Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// ByName resolves a scenario by its identifier.
func ByName(name string) (*Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names lists the library's scenario names, sorted.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.name
	}
	return out
}

// mixHit reports whether operation i of a deterministic pct% mix is a
// "hit" (Bresenham-style spreading: exactly pct hits per 100 ops,
// evenly interleaved, no randomness).
func mixHit(i, pct int) bool {
	return (i+1)*pct/100 > i*pct/100
}

// peakMemory sums the image's memory high-water marks: per-compartment
// private heap peaks, the shared heap peak, and the DSS reservation.
func peakMemory(img *core.Image) uint64 {
	var total uint64
	for _, c := range img.Compartments() {
		total += c.Heap.Stats().BytesPeak
	}
	total += img.SharedHeap().Stats().BytesPeak
	total += uint64(img.DSSBytes())
	return total
}

// collect assembles the metric vector after a measurement loop of s.ops
// operations: bootCycles is the clock at first served operation,
// startCycles / startCross the clock and gate counters when measurement
// began. It then hands the image to the scenario's observer, if any.
func (s *Scenario) collect(img *core.Image, lat *machine.LatencySampler, bootCycles, startCycles, startCross uint64) Metrics {
	if s.observe != nil {
		defer s.observe(img)
	}
	ops := s.ops
	cycles := img.Mach.Clock.Cycles() - startCycles
	seconds := float64(cycles) / img.Mach.Costs.FreqHz
	var tput float64
	if seconds > 0 {
		tput = float64(ops) / seconds
	}
	return Metrics{
		Throughput:   tput,
		P50us:        img.Mach.Costs.Micros(lat.Percentile(50)),
		P99us:        img.Mach.Costs.Micros(lat.Percentile(99)),
		MaxUs:        img.Mach.Costs.Micros(lat.Max()),
		PeakMemBytes: peakMemory(img),
		BootCycles:   bootCycles,
		Cycles:       cycles,
		Ops:          ops,
		Crossings:    img.Crossings() - startCross,
	}
}
