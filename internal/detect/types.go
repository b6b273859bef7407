// Package detect implements the HomeGuard threat detector (Sec. VI): given
// the rules extracted from the apps installed in one home plus each app's
// installation configuration, it discovers Cross-App Interference threats
// in all seven categories of Table I — Actuator Race (AR), Goal Conflict
// (GC), Covert Triggering (CT), Self Disabling (SD), Loop Triggering (LT),
// Enabling-Condition (EC) and Disabling-Condition (DC) interference — and
// chains of user-accepted interferences (Sec. VI-D).
package detect

import (
	"fmt"

	"homeguard/internal/envmodel"
	"homeguard/internal/rule"
	"homeguard/internal/solver"
	"homeguard/internal/symexec"
)

// Kind is a CAI threat category (Table I acronym).
type Kind string

// Threat categories.
const (
	ActuatorRace      Kind = "AR"
	GoalConflict      Kind = "GC"
	CovertTriggering  Kind = "CT"
	SelfDisabling     Kind = "SD"
	LoopTriggering    Kind = "LT"
	EnablingCondition Kind = "EC"
	DisablingCond     Kind = "DC"
)

// AllKinds lists the seven categories in Table I order.
var AllKinds = []Kind{
	ActuatorRace, GoalConflict, CovertTriggering, SelfDisabling,
	LoopTriggering, EnablingCondition, DisablingCond,
}

// Class returns the basic class of the threat kind.
func (k Kind) Class() string {
	switch k {
	case ActuatorRace, GoalConflict:
		return "Action-Interference"
	case CovertTriggering, SelfDisabling, LoopTriggering:
		return "Trigger-Interference"
	case EnablingCondition, DisablingCond:
		return "Condition-Interference"
	}
	return "Unknown"
}

// Threat is one discovered interference between two rules. For directed
// kinds (CT, SD, LT, EC, DC) R1 is the interfering rule and R2 the
// interfered-with rule.
type Threat struct {
	Kind     Kind
	R1, R2   *rule.Rule
	Property envmodel.Property // shared goal property for GC and env-mediated CT/EC/DC
	Witness  solver.Model      // a concrete situation in which the threat manifests
	Note     string
}

func (t Threat) String() string {
	s := fmt.Sprintf("[%s] %s ↔ %s", t.Kind, t.R1.QualifiedID(), t.R2.QualifiedID())
	if t.Property != "" {
		s += fmt.Sprintf(" (property %s)", t.Property)
	}
	if t.Note != "" {
		s += ": " + t.Note
	}
	return s
}

// Config is the installation-time configuration of one app (the paper's
// configuration information, Sec. VII): device bindings to 128-bit device
// IDs, user-provided values, and device types for generic switches.
type Config struct {
	// Devices maps device-input names to physical device IDs.
	Devices map[string]string
	// Values maps value-input names to the configured value.
	Values map[string]rule.Term
	// ValueLists holds multi-select values (e.g. selected modes).
	ValueLists map[string][]string
	// DeviceTypes classifies generic-switch devices (from the NLP
	// description classifier, or user input).
	DeviceTypes map[string]envmodel.DeviceType
}

// NewConfig returns an empty configuration.
func NewConfig() *Config {
	return &Config{
		Devices:     map[string]string{},
		Values:      map[string]rule.Term{},
		ValueLists:  map[string][]string{},
		DeviceTypes: map[string]envmodel.DeviceType{},
	}
}

// InstalledApp is one app as installed: its extraction output, its
// resolved installation configuration and its compiled rule set (see
// compile.go). It is immutable and shared: NewInstalledApp returns one
// instance per (rule set, configuration content) process-wide, compiled
// when it is built, so every home and the store auditor that install one
// extraction under equal configurations hold the same pointer. Nothing
// writes its fields after construction; callers must not either.
type InstalledApp struct {
	Info   symexec.AppInfo
	Rules  *rule.RuleSet
	Config *Config

	comp *CompiledRuleSet
}

// NewInstalledApp returns the shared, compiled instance of res under cfg
// (see intern.go). A nil config selects type-level device identity (the
// store-audit mode of Sec. VIII-B). The instance keeps its own copy of
// cfg, so the caller may reuse cfg afterwards.
func NewInstalledApp(res *symexec.Result, cfg *Config) *InstalledApp {
	return internApp(res.App, res.Rules, cfg)
}

// Options tune the detector; the zero value enables everything.
type Options struct {
	// DisableFiltering skips the M_AR/M_GC candidate pre-filters and runs
	// constraint solving for every pair (ablation for DESIGN.md §1).
	DisableFiltering bool
	// DisableReuse disables constraint-solving result reuse across threat
	// kinds (ablation for the Fig. 9 green arrows).
	DisableReuse bool
	// DisablePruning disables the footprint-disjointness pair prune
	// (ablation): every app pair goes through full detection even when the
	// two rule sets share no interference channel.
	DisablePruning bool
	// Modes is the home's mode universe (defaults to Home/Away/Night).
	Modes []string
	// SolverNodeCap overrides the constraint-search node budget per solver
	// call (0 keeps the solver default of 200k). When a query exhausts the
	// budget the detector reports it conservatively as satisfiable and
	// CheckPair surfaces solver.ErrSearchLimit.
	SolverNodeCap int
	// Verdicts, when non-nil, shares whole app-pair detection verdicts
	// across detectors (internal/pairverdict implements it). The detector
	// addresses each unpruned app pair by a content hash of both apps'
	// canonical rule sets, configurations and the mode list; a hit skips
	// every solver call for the pair.
	Verdicts PairVerdictCache
}

// PairVerdictCache caches app-pair detection verdicts across homes.
// Detect returns the threats cached under key when present; otherwise it
// runs compute (at most once per key, fleet-wide — concurrent callers
// coalesce), stores the result and returns it. The boolean reports a hit.
// Implementations must be goroutine-safe; compute runs while the calling
// detector's lock is held, so it must not acquire detector locks itself.
// Cached threats are shared between homes and must be treated as
// immutable by callers.
type PairVerdictCache interface {
	Detect(key PairKey, compute func() []Threat) ([]Threat, bool)
}

// Stats counts detector work for the efficiency evaluation (Fig. 9).
type Stats struct {
	PairsChecked    int
	SolverCalls     int
	SolverCacheHits int
	// SearchLimitHits counts solver calls that exhausted their node budget
	// and degraded to the conservative satisfiable-without-witness verdict
	// (surfaced as an error by CheckPair).
	SearchLimitHits int
	// PairsPruned counts rule pairs skipped outright by the footprint
	// prune (disjoint interference channels — provably no threat).
	PairsPruned int
	// PairsIndexed counts candidate app pairs the footprint-channel index
	// generated (pairs that share at least one channel and therefore went
	// through full detection or the verdict cache).
	PairsIndexed int
	// PairsSkippedByIndex counts rule pairs the index never generated as
	// candidates (disjoint footprints). These pairs are also counted in
	// PairsPruned — the index skips exactly the set the scan path's
	// per-pair footprint check would have rejected — so the two counters
	// stay comparable across the index and scan paths.
	PairsSkippedByIndex int
	// PairVerdictHits and PairVerdictMisses count app-pair lookups in the
	// shared verdict cache. Hits skip all solving for the pair: the rule
	// pairs served still count into PairsChecked ("verdict obtained"), but
	// Candidates, Found and the Filter/Solve timings record only work this
	// detector ran itself — a home fed from the cache reports threats
	// without growing Found, by design.
	PairVerdictHits   int
	PairVerdictMisses int
	Candidates        map[Kind]int
	Found             map[Kind]int
	// FilterNS and SolveNS accumulate per-kind candidate-filtering and
	// constraint-solving time in nanoseconds (Fig. 9's two components).
	FilterNS map[Kind]int64
	SolveNS  map[Kind]int64
}

func newStats() Stats {
	return Stats{
		Candidates: map[Kind]int{},
		Found:      map[Kind]int{},
		FilterNS:   map[Kind]int64{},
		SolveNS:    map[Kind]int64{},
	}
}
