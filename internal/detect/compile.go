package detect

import (
	"sort"
	"strings"

	"homeguard/internal/envmodel"
	"homeguard/internal/rule"
	"homeguard/internal/solver"
)

// This file implements the compile-once layer of the detector: every
// InstalledApp is compiled exactly once, when the intern table builds it
// (intern.go), into a CompiledRuleSet — canonical formulas, solver
// variable declarations, action effects, trigger metadata, the footprint
// channels and the verdict signature — so pair checks consume precompiled
// artifacts instead of re-running canonVar/canonFormula/declareVars per
// pair.
//
// Compilation is a pure function of the app's fields (Info, Rules,
// Config) plus the immutable capability/envmodel registries; it reads no
// detector state, so one compiled instance serves every detector. What
// stays per-detector is variable *declaration* (solver domains): the
// home's mode universe lives on the Detector, so compiled artifacts carry
// declaration plans (varDecl) rather than materialized domains.

// varDecl is the declaration plan for one canonical variable of a
// compiled formula: its name, its kind/type metadata, and the string
// values the formula compares it against (sorted), which widen enum
// domains at declaration time.
type varDecl struct {
	name     string
	v        rule.Var
	observed []string
}

// envProp pairs a condition variable with the environment property its
// attribute suffix senses.
type envProp struct {
	varName string
	prop    envmodel.Property
}

// compiledRule is the per-rule compilation artifact.
type compiledRule struct {
	r   *rule.Rule
	app *InstalledApp // the app the rule was compiled under

	// Canonical formulas (variables renamed to home-global form, config
	// values substituted) and their declaration plans.
	situation rule.Constraint // trigger-constraint ∧ condition
	condition rule.Constraint // condition only
	situDecls []varDecl
	condDecls []varDecl

	// Trigger metadata for Covert-Triggering channels.
	trigSkip       bool // "app"/"time" subjects cannot be fired by actions
	trigAnyChange  bool
	trigVar        string // canonical variable the trigger subscribes to
	trigConstraint rule.Constraint
	trigProp       envmodel.Property
	trigPropOK     bool
	trigBoundDir   int // one-sided bound direction of the raw trigger constraint

	// Condition metadata for Enabling/Disabling-Condition detection.
	condAlways   bool
	condVarSet   map[string]rule.Var
	condEnvProps []envProp // sorted by variable name

	// Action effects: device-state writes (with their equality constraints
	// pre-rendered) and environment drifts.
	effects    []deviceEffect
	effectCs   []rule.Constraint
	envEffects envmodel.Effects

	// Action device identity for the GC same-actuator exclusion, and the
	// canonical first action parameter for setpoint-style bounds.
	actionIsInput bool
	actionDevKey  string
	setpointTerm  rule.Term
}

// CompiledRuleSet is the per-app artifact compiled once when the app is
// interned and consumed by every pair check: compiled rules, the app's
// footprint channels, and the verdict signature that PairKey hashing
// reuses instead of re-serializing the rule set.
type CompiledRuleSet struct {
	rules []compiledRule
	index map[*rule.Rule]int
	chans Channels
	sig   []byte
}

// Compiled returns the app's compiled rule set.
func (app *InstalledApp) Compiled() *CompiledRuleSet { return app.comp }

// Channels returns the app's footprint channels. The audit engine feeds
// them to a FootprintIndex to generate candidate pairs.
func (app *InstalledApp) Channels() Channels { return app.comp.chans }

// compiledFor returns the compiled form of one rule, compiling a one-off
// artifact for rules that are not part of the app's rule set (hand-built
// rules in tests).
func compiledFor(app *InstalledApp, r *rule.Rule) *compiledRule {
	if i, ok := app.comp.index[r]; ok {
		return &app.comp.rules[i]
	}
	cr := compileRule(app, r, configBindings(app))
	return &cr
}

// compile builds the app's CompiledRuleSet; the caller sets sig.
func compile(app *InstalledApp) *CompiledRuleSet {
	rules := app.Rules.Rules
	cs := &CompiledRuleSet{
		rules: make([]compiledRule, 0, len(rules)),
		index: make(map[*rule.Rule]int, len(rules)),
	}
	bind := configBindings(app)
	for i, r := range rules {
		cs.rules = append(cs.rules, compileRule(app, r, bind))
		cs.index[r] = i
	}
	cs.chans = ChannelsOf(footprintFromCompiled(cs))
	return cs
}

// compileRule compiles one rule against the app's config bindings.
func compileRule(app *InstalledApp, r *rule.Rule, bind map[string]rule.Term) compiledRule {
	c := compiledRule{r: r, app: app}

	c.situation = canonFormulaBind(app, r.TriggerConditionFormula(), bind)
	c.condition = canonFormulaBind(app, r.Condition.Formula(), bind)
	c.situDecls = compileDecls(c.situation)
	c.condDecls = compileDecls(c.condition)

	t := r.Trigger
	c.trigSkip = t.Subject == "app" || t.Subject == "time"
	c.trigAnyChange = t.AnyChange()
	c.trigVar = canonTriggerVar(app, r)
	if !c.trigAnyChange {
		c.trigConstraint = canonFormulaBind(app, t.Constraint, bind)
		// The bound direction is read off the raw constraint: config
		// substitution may replace a user-input threshold with a constant,
		// which must not change how the trigger's one-sidedness is judged.
		c.trigBoundDir = boundDirection(t.Constraint)
	}
	c.trigProp, c.trigPropOK = envmodel.AttributeProperty(t.Attribute)

	c.condAlways = r.Condition.Always()
	c.condVarSet = rule.VarSet(c.condition)
	if len(c.condVarSet) > 0 {
		names := make([]string, 0, len(c.condVarSet))
		for name := range c.condVarSet {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			attr := name
			if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
				attr = name[dot+1:]
			}
			if p, ok := envmodel.AttributeProperty(attr); ok {
				c.condEnvProps = append(c.condEnvProps, envProp{varName: name, prop: p})
			}
		}
	}

	c.effects = actionEffectsBind(app, r, bind)
	if len(c.effects) > 0 {
		c.effectCs = make([]rule.Constraint, len(c.effects))
		for i := range c.effects {
			c.effectCs[i] = c.effects[i].constraint()
		}
	}
	c.envEffects = envEffects(app, r)

	if in := app.Info.Input(r.Action.Subject); in != nil {
		c.actionIsInput = true
		c.actionDevKey = deviceKey(app, r.Action.Subject)
	}
	if len(r.Action.Params) > 0 {
		c.setpointTerm = canonTermBind(app, r.Action.Params[0], bind)
	}
	return c
}

// footprintFromCompiled assembles the app footprint from compiled rules;
// see footprintOf's doc comment in footprint.go for what reads and writes
// cover. The compiled situation declarations carry exactly the variable
// names rule.VarSet reported, so the footprint is unchanged — it is just
// no longer a second canonicalization pass.
func footprintFromCompiled(cs *CompiledRuleSet) *rule.Footprint {
	fp := rule.NewFootprint()
	for i := range cs.rules {
		c := &cs.rules[i]
		for _, dec := range c.situDecls {
			addReadName(fp, dec.name)
		}
		if !c.trigSkip {
			addReadName(fp, c.trigVar)
			if c.trigPropOK {
				fp.AddRead(propKey(c.trigProp))
			}
		}
		for _, eff := range c.effects {
			fp.AddWrite(eff.varName)
		}
		for p, sign := range c.envEffects {
			if sign != envmodel.None {
				fp.AddWrite(propKey(p))
			}
		}
	}
	return fp
}

// compileDecls computes the declaration plan of a formula: every
// referenced variable with the string values it is compared against.
// Names and observed values are sorted so declaration is deterministic
// (the map-driven predecessor declared in map-iteration order).
func compileDecls(f rule.Constraint) []varDecl {
	if f == nil {
		return nil
	}
	vars := rule.VarSet(f)
	if len(vars) == 0 {
		return nil
	}
	observed := map[string]map[string]bool{}
	collectObserved(f, observed)
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	decls := make([]varDecl, 0, len(names))
	for _, name := range names {
		var obs []string
		if m := observed[name]; len(m) > 0 {
			obs = make([]string, 0, len(m))
			for o := range m {
				obs = append(obs, o)
			}
			sort.Strings(obs)
		}
		decls = append(decls, varDecl{name: name, v: vars[name], observed: obs})
	}
	return decls
}

// collectObserved records string values each variable is compared against.
func collectObserved(c rule.Constraint, observed map[string]map[string]bool) {
	switch x := c.(type) {
	case rule.Cmp:
		if v, ok := x.L.(rule.Var); ok {
			if s, ok := x.R.(rule.StrVal); ok {
				addObserved(observed, v.Name, string(s))
			}
		}
		if v, ok := x.R.(rule.Var); ok {
			if s, ok := x.L.(rule.StrVal); ok {
				addObserved(observed, v.Name, string(s))
			}
		}
	case rule.And:
		for _, sub := range x.Cs {
			collectObserved(sub, observed)
		}
	case rule.Or:
		for _, sub := range x.Cs {
			collectObserved(sub, observed)
		}
	case rule.Not:
		collectObserved(x.C, observed)
	}
}

// declareGroups declares the variables of up to two precompiled
// declaration plans of the rule pair (c1, c2) into the problem, unioning observed values for
// variables both plans reference (both formulas' comparisons widen the
// shared variable's enum domain, exactly as the one-pass walk did).
// Groups are sorted by name, so this is a linear merge.
func (d *Detector) declareGroups(p *solver.Problem, c1, c2 *compiledRule, a, b []varDecl) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].name < b[j].name:
			d.declareVar(p, c1, c2, a[i].name, a[i].v, a[i].observed)
			i++
		case a[i].name > b[j].name:
			d.declareVar(p, c1, c2, b[j].name, b[j].v, b[j].observed)
			j++
		default:
			d.declareVar(p, c1, c2, a[i].name, a[i].v, unionSorted(a[i].observed, b[j].observed))
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		d.declareVar(p, c1, c2, a[i].name, a[i].v, a[i].observed)
	}
	for ; j < len(b); j++ {
		d.declareVar(p, c1, c2, b[j].name, b[j].v, b[j].observed)
	}
}

// unionSorted merges two sorted string slices without duplicates.
func unionSorted(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
