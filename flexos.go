// Package flexos is a Go reproduction of "FlexOS: Towards Flexible OS
// Isolation" (Lefeuvre et al., ASPLOS 2022): a library operating system
// whose compartmentalization and protection profile is chosen at build
// time rather than design time.
//
// The package is the public face of the system. It lets users:
//
//   - assemble a Catalog of OS components (micro-libraries) — the
//     repository ships the paper's full set: a TCP/IP stack, a VFS with
//     ramfs, a scheduler surface, a time subsystem, a C library, and four
//     applications (Redis, Nginx, SQLite, iPerf miniatures);
//   - describe a safety configuration (an ImageSpec or the paper's
//     configuration-file format): which components share which
//     compartment, which isolation mechanism backs the boundaries (NONE,
//     Intel MPK, EPT/VMs, CHERI), which gate flavor and data sharing
//     strategy to use (light/full gates; DSS, shared heap or shared
//     stacks), and per-component software hardening (CFI, KASan, UBSan,
//     stack protector);
//   - Build the configuration into an Image and run workloads on its
//     deterministic simulated machine; and
//   - explore a whole design space with partial safety ordering through
//     the Query builder — any number of simultaneous budget constraints,
//     context cancellation, optional streaming of results — obtaining
//     the safest configurations that satisfy every constraint.
//
// Everything executes on a simulated machine with a cycle-accurate cost
// model calibrated against the paper's Xeon Silver 4114 measurements, so
// experiments are deterministic and fast while reproducing the paper's
// performance shapes. See DESIGN.md for the substitution map and
// EXPERIMENTS.md for paper-vs-measured results.
package flexos

import (
	"flexos/internal/attack"
	"flexos/internal/config"
	"flexos/internal/core"
	"flexos/internal/explore"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/libc"
	"flexos/internal/machine"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
	"flexos/internal/ramfs"
	"flexos/internal/scenario"
	"flexos/internal/store"
	"flexos/internal/synth"
	"flexos/internal/timesys"
	"flexos/internal/vfs"

	iperfapp "flexos/internal/apps/iperf"
	nginxapp "flexos/internal/apps/nginx"
	redisapp "flexos/internal/apps/redis"
	sqliteapp "flexos/internal/apps/sqlite"
)

// Core types re-exported for users of the public API.
type (
	// Catalog is the pool of available OS components.
	Catalog = core.Catalog
	// Component is one micro-library.
	Component = core.Component
	// Func is one component function.
	Func = core.Func
	// SharedVar is a __shared data annotation.
	SharedVar = core.SharedVar
	// Ctx is the execution context passed to component functions.
	Ctx = core.Ctx
	// Image is a built FlexOS system.
	Image = core.Image
	// ImageSpec is a build-time safety configuration.
	ImageSpec = core.ImageSpec
	// CompSpec describes one compartment of an ImageSpec.
	CompSpec = core.CompSpec
	// Report describes a built image (layout, gates, TCB).
	Report = core.Report
	// Config is a parsed configuration file.
	Config = config.Config
	// ConfigCompartment is one compartment declaration of a Config.
	ConfigCompartment = config.Compartment
	// ConfigLibAssignment maps a library into a compartment in a Config.
	ConfigLibAssignment = config.LibAssignment
	// CostModel is the simulated machine's cycle cost model.
	CostModel = machine.CostModel
	// HardeningSet is a set of software hardening techniques.
	HardeningSet = harden.Set
	// GateMode selects a gate flavor (light / full).
	GateMode = isolation.GateMode
	// Sharing selects the stack-data sharing strategy.
	Sharing = isolation.Sharing
	// ExploreConfig is one point of an exploration space.
	ExploreConfig = explore.Config
	// ExploreResult is the outcome of a design-space exploration.
	ExploreResult = explore.Result
	// ExploreMeasurement is one decided configuration of an
	// ExploreResult (and the value a streaming query yields from).
	ExploreMeasurement = explore.Measurement
	// ExploreMemo is a measurement cache shared across explorations,
	// keyed by canonical configuration identity.
	ExploreMemo = explore.Memo
	// ExploreConstraint is one feasibility bound of a Query: the
	// metric's value must satisfy `value Op Bound`.
	ExploreConstraint = explore.Constraint
	// ConstraintOp is a constraint direction (AtLeast / AtMost).
	ConstraintOp = explore.Op
	// MeasureError is the typed error a failed measurement surfaces,
	// carrying the failing configuration's ID, canonical key and label.
	MeasureError = explore.MeasureError
	// ExploreShard selects one deterministic slice of a configuration
	// space for distributed exploration (see Query.Shard): the Index-th
	// of Count order-preserving, pairwise-disjoint contiguous
	// partitions of the canonical enumeration.
	ExploreShard = explore.Shard
	// MergeConflictError is the typed error MergeStores returns when
	// two input stores disagree on a record: it names the conflicting
	// key, its content address, both source directories and both metric
	// vectors.
	MergeConflictError = store.ConflictError
	// Metrics is the multi-metric vector one workload run produces:
	// throughput, p50/p99/max latency, peak simulated memory, boot
	// cycles.
	Metrics = scenario.Metrics
	// Metric selects the Metrics dimension a budget applies to.
	Metric = scenario.Metric
	// Workload runs on a built configuration and reports Metrics.
	Workload = scenario.Workload
	// Scenario is one entry of the shipped workload library (Redis
	// GET/SET mixes, Nginx keepalive mixes, iPerf stream counts,
	// SQLite transaction batches).
	Scenario = scenario.Scenario
	// PhasedScenario is a time-varying workload: an ordered phase
	// schedule over library scenarios ("redis-get90*3+redis-get50"),
	// merged under worst-case provisioning semantics. See ParsePhased.
	PhasedScenario = scenario.Phased
)

// Budget metrics for Query constraints.
const (
	MetricThroughput = scenario.MetricThroughput
	MetricP50        = scenario.MetricP50
	MetricP99        = scenario.MetricP99
	MetricMax        = scenario.MetricMax
	MetricPeakMem    = scenario.MetricPeakMem
	MetricBoot       = scenario.MetricBoot
	MetricSurvival   = scenario.MetricSurvival
)

// Constraint directions for Query.Constrain: AtLeast is a floor (the
// natural direction for throughput), AtMost a ceiling (the natural
// direction for latency, memory and boot cost).
const (
	AtLeast = explore.AtLeast
	AtMost  = explore.AtMost
)

// Typed exploration errors. Query.Run returns an error wrapping
// ErrCanceled when its context is canceled or times out, and one
// wrapping ErrNoFeasible (alongside the fully-populated result) when
// no configuration satisfies every constraint.
var (
	ErrCanceled   = explore.ErrCanceled
	ErrNoFeasible = explore.ErrNoFeasible
)

// ParseConstraint parses the CLI constraint syntax "metric>=bound" /
// "metric<=bound" (e.g. "throughput>=500000", "p99<=2.5") into a
// Query constraint.
func ParseConstraint(s string) (ExploreConstraint, error) { return explore.ParseConstraint(s) }

// NaturalOp returns the direction a budget on the metric traditionally
// uses: a floor (AtLeast) for higher-is-better metrics, a ceiling
// (AtMost) otherwise.
func NaturalOp(m Metric) ConstraintOp { return explore.NaturalOp(m) }

// ParseShard parses the CLI shard syntax "index/count" with
// 0 <= index < count (e.g. "0/4") into a Query.Shard selection.
func ParseShard(s string) (ExploreShard, error) { return explore.ParseShard(s) }

// MemoKey composes the memo/store key of one configuration under a
// memo namespace (Query.MemoNamespace): the unit of exchange when runs
// ship partial results to each other — shard-merge via MergeStores,
// or a cluster coordinator collecting (key, metrics) records from its
// workers. Reproducible from (namespace, config) alone, on any node.
func MemoKey(namespace string, c *ExploreConfig) string { return explore.MemoKey(namespace, c) }

// MergeStores merges N result-store directories (typically one per
// exploration shard, written via Query.Cache) into a fresh store at
// outDir, validating that the inputs are disjoint — an identical
// duplicate (canonical twins across shards) is deduplicated, a
// conflicting one aborts the merge. The merged store is written in
// sorted key order, so its bytes are identical however the space was
// sharded. It returns the number of unique records written.
func MergeStores(outDir string, inDirs ...string) (int, error) {
	st, err := store.Merge(outDir, inDirs...)
	return st.Records, err
}

// Gate flavors and sharing strategies.
const (
	GateDefault = isolation.GateDefault
	GateLight   = isolation.GateLight
	GateFull    = isolation.GateFull

	ShareDSS   = isolation.ShareDSS
	ShareHeap  = isolation.ShareHeap
	ShareStack = isolation.ShareStack
)

// Hardening techniques.
const (
	CFI            = harden.CFI
	KASan          = harden.KASan
	UBSan          = harden.UBSan
	StackProtector = harden.StackProtector
	ShadowStack    = harden.ShadowStack
	AllHardening   = harden.All
)

// Attack-axis types re-exported for users of the public API.
type (
	// AttackScenario is one attack workload of the shipped library
	// (rop-chain, addr-probe, comp-leak, combined).
	AttackScenario = attack.Scenario
	// AttackSpec is a parsed attack-axis configuration: scenario,
	// machine profile and optional pinned ASLR level.
	AttackSpec = attack.Spec
	// ASLR is a layout-randomization level (entropy bits + leak
	// resistance), one dimension of the safety order.
	ASLR = isolation.ASLR
	// MachineProfile is a named cost-model/attack-surface bundle.
	MachineProfile = machine.Profile
)

// AttackByName resolves an attack scenario identifier.
func AttackByName(name string) (*AttackScenario, bool) { return attack.ByName(name) }

// AttackScenarios returns the shipped attack library, sorted by name.
func AttackScenarios() []*AttackScenario { return attack.All() }

// AttackNames lists the attack scenario names for help text.
func AttackNames() string { return attack.Names() }

// ParseAttackConfig parses the attack-axis configuration syntax
// "scenario[@profile][;aslr=off|N|N+leak]".
func ParseAttackConfig(s string) (AttackSpec, error) { return attack.ParseConfig(s) }

// AttackSpace expands a base configuration space along the attack
// axes: profile stamping, the ASLR ladder (or pinned level), and the
// CFI/shadow-stack hardening variants.
func AttackSpace(base []*ExploreConfig, spec AttackSpec) []*ExploreConfig {
	return attack.Space(base, spec)
}

// StampSpace pins every configuration of a space to a machine profile
// and, optionally, an ASLR level — without expanding it. pinASLR
// false leaves the configurations' ASLR untouched.
func StampSpace(base []*ExploreConfig, profile string, a ASLR, pinASLR bool) []*ExploreConfig {
	return attack.Stamp(base, profile, a, pinASLR)
}

// MeasureAttack wraps a measure function so every vector carries the
// attack scenario's survival score (the MetricSurvival dimension).
func MeasureAttack(s *AttackScenario, base func(*ExploreConfig) (Metrics, error)) func(*ExploreConfig) (Metrics, error) {
	return attack.Measure(s, base)
}

// AttackNamespace is the memo namespace of an attack-scored run over
// the given workload namespace.
func AttackNamespace(s *AttackScenario, workload string) string {
	return attack.Namespace(s, workload)
}

// ParseASLR parses an ASLR level spec ("off", "16", "16+leak").
func ParseASLR(s string) (ASLR, error) { return isolation.ParseASLR(s) }

// ParseProfile resolves a machine profile name ("", "x86", "riscv").
func ParseProfile(s string) (MachineProfile, error) { return machine.ParseProfile(s) }

// CanonicalProfile canonicalizes a machine profile name; the default
// profile canonicalizes to "".
func CanonicalProfile(s string) (string, error) { return machine.CanonicalProfile(s) }

// NewCatalog returns an empty component catalog.
func NewCatalog() *Catalog { return core.NewCatalog() }

// NewHardening builds a hardening set.
func NewHardening(techs ...harden.Tech) HardeningSet { return harden.NewSet(techs...) }

// DefaultCosts returns the cost model calibrated against the paper's
// Xeon Silver 4114 (Figure 11 numbers).
func DefaultCosts() CostModel { return machine.DefaultCosts() }

// Build materializes a safety configuration into a runnable image: the
// "toolchain" step that binds abstract gates to the chosen backend, lays
// out per-compartment sections and heaps, instantiates the data sharing
// strategy, and applies hardening.
func Build(cat *Catalog, spec ImageSpec) (*Image, error) { return core.Build(cat, spec) }

// ParseConfig parses the paper's configuration-file format (§3).
func ParseConfig(text string) (*Config, error) { return config.Parse(text) }

// SpecFromConfig converts a parsed configuration file into an ImageSpec
// against a catalog; unassigned libraries join the default compartment.
func SpecFromConfig(cfg *Config, cat *Catalog) (ImageSpec, error) {
	return core.SpecFromConfig(cfg, cat)
}

// RenderConfig serializes a Config back to the file format.
func RenderConfig(cfg *Config) string { return config.Render(cfg) }

// TableOne reproduces the paper's porting-effort table for a catalog.
func TableOne(cat *Catalog) []core.TableOneRow { return core.TableOne(cat) }

// FullCatalog assembles every component the repository ships: the TCB
// (boot, memory manager), the scheduler, the C library, the network
// stack, the filesystem pair, the time subsystem, and all four
// applications. Each call returns a fresh, independent catalog (component
// state is per-catalog).
func FullCatalog() *Catalog {
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	oslib.RegisterSched(cat)
	libc.Register(cat)
	netstack.Register(cat)
	timesys.Register(cat)
	ramfs.Register(cat)
	vfs.Register(cat)
	redisapp.Register(cat)
	nginxapp.Register(cat)
	sqliteapp.Register(cat)
	iperfapp.Register(cat)
	return cat
}

// TCBLibs are the trusted-computing-base components every image links
// into its default compartment.
func TCBLibs() []string { return []string{oslib.BootName, oslib.MMName} }

// Component names shipped by the repository, for building ImageSpecs
// programmatically.
const (
	LibBoot   = oslib.BootName
	LibMM     = oslib.MMName
	LibSched  = oslib.SchedName
	LibC      = libc.Name
	LibNet    = netstack.Name
	LibVFS    = vfs.Name
	LibRamfs  = ramfs.Name
	LibTime   = timesys.Name
	LibRedis  = redisapp.Name
	LibNginx  = nginxapp.Name
	LibSQLite = sqliteapp.Name
	LibIPerf  = iperfapp.Name
)

// RedisComponents and NginxComponents list the four Figure 6 components
// of each application, in the paper's row order.
func RedisComponents() [4]string {
	return [4]string{redisapp.Name, libc.Name, oslib.SchedName, netstack.Name}
}

// NginxComponents lists Nginx's Figure 6 components.
func NginxComponents() [4]string {
	return [4]string{nginxapp.Name, libc.Name, oslib.SchedName, netstack.Name}
}

// Fig6Space generates the paper's 80-configuration design space for a
// four-component application.
func Fig6Space(components [4]string) []*ExploreConfig { return explore.Fig6Space(components) }

// Fig5Space generates the 16-configuration hardening lattice of Figure 5.
func Fig5Space(blockA, blockB []string) []*ExploreConfig {
	return explore.Fig5Space(blockA, blockB)
}

// NewExploreMemo returns an empty measurement cache for Query.Memo.
// Share one memo only among explorations whose measure functions agree
// for identical configurations (same application and request count);
// Query.Workload and Query.Namespace namespace several benchmarks in
// one memo.
func NewExploreMemo() *ExploreMemo { return explore.NewMemo() }

// CrossAppSpace generates a larger cross-application design space: the
// five Figure-8 partitions × 16 hardening masks × each mechanism, for
// each application quadruple (e.g. RedisComponents, NginxComponents).
// An empty mechanisms slice defaults to {intel-mpk, vm-ept}.
func CrossAppSpace(mechanisms []string, apps ...[4]string) []*ExploreConfig {
	return explore.CrossAppSpace(mechanisms, apps...)
}

// SynthSpace generates a deterministic pseudo-random configuration
// space of exactly n points: a union of per-application sub-spaces
// structurally faithful to CrossAppSpace, for exercising the
// exploration engine at 10k–1M points. The same (seed, n) always
// yields the same space, and SynthSpace(seed, m) is a prefix of
// SynthSpace(seed, n) for m <= n.
func SynthSpace(seed int64, n int) []*ExploreConfig { return synth.Space(seed, n) }

// SynthMeasure returns the deterministic, allocation-free,
// safety-monotone metric model paired with SynthSpace: a pure function
// of (seed, configuration) suitable as a Query.Measure for synthetic
// benchmarks and oracle-equivalence tests.
func SynthMeasure(seed int64) func(*ExploreConfig) (Metrics, error) { return synth.Measure(seed) }

// SynthMedianThroughput returns the median modeled throughput of a
// space under SynthMeasure(seed) — a budget that prunes roughly half
// the space.
func SynthMedianThroughput(seed int64, cfgs []*ExploreConfig) float64 {
	return synth.MedianThroughput(seed, cfgs)
}

// SynthQuantileThroughput returns the q-quantile of a space's modeled
// throughput under SynthMeasure(seed). High quantiles make tight
// monotone floors for budgeted branch-and-bound sweeps, where pruning
// pays off most.
func SynthQuantileThroughput(seed int64, cfgs []*ExploreConfig, q float64) float64 {
	return synth.QuantileThroughput(seed, cfgs, q)
}

// Scenarios returns the shipped multi-metric workload library, sorted
// by name: Redis GET/SET ratios and pipelining, Nginx static/keepalive
// mixes, iPerf stream counts, SQLite transaction batches.
func Scenarios() []*Scenario { return scenario.All() }

// ScenarioByName resolves a scenario identifier (e.g. "redis-get90").
func ScenarioByName(name string) (*Scenario, bool) { return scenario.ByName(name) }

// ParseMetric resolves a metric name ("throughput", "p50", "p99",
// "maxlat", "mem", "boot") into a Metric selector.
func ParseMetric(s string) (Metric, error) { return scenario.ParseMetric(s) }

// ParsePhased parses a phase-schedule spec — scenario names joined by
// '+', each optionally weighted with "*N", e.g.
// "redis-get90*3+redis-get50" — into a time-varying workload whose
// phases all drive one application. The result plugs into
// Query.Workload exactly like a plain Scenario.
func ParsePhased(spec string) (*PhasedScenario, error) { return scenario.ParsePhased(spec) }

// IsPhasedSpec reports whether a -scenario selector is a phase
// schedule (contains '+' or '*') rather than a plain library name.
func IsPhasedSpec(spec string) bool { return scenario.IsPhasedSpec(spec) }

// MeasureScenario adapts a workload into an exploration measure
// function: each configuration is materialized into an image spec (TCB
// libraries joining the default compartment) and run through the
// workload. Safe for concurrent use — every call builds a fresh image.
func MeasureScenario(w Workload) func(*ExploreConfig) (Metrics, error) {
	return func(c *ExploreConfig) (Metrics, error) {
		return w.Run(c.Spec(TCBLibs()))
	}
}
