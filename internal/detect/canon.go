package detect

import (
	"strings"

	"homeguard/internal/capability"
	"homeguard/internal/envmodel"
	"homeguard/internal/rule"
	"homeguard/internal/solver"
	"homeguard/internal/symexec"
)

// deviceKey returns the canonical identity of the device bound to an
// app input: the configured 128-bit device ID when known, else a
// type-level key ("type:<deviceType>#<mainAttr>") implementing the
// Sec. VIII-B setting where two rules use "the same device" when their
// devices share a type.
func deviceKey(app *InstalledApp, input string) string {
	if id, ok := app.Config.Devices[input]; ok && id != "" {
		return id
	}
	in := app.Info.Input(input)
	if in == nil {
		return "type:" + input
	}
	dt := deviceType(app, in)
	// Use the capability's main attribute to separate e.g. locks from
	// switches even when both are Generic-typed.
	attr := ""
	if c, ok := capability.Get(in.Capability); ok {
		attr = c.MainAttribute()
	}
	return "type:" + string(dt) + "#" + attr
}

// deviceType resolves the physical device type of an input: pinned by
// capability, else configured (NLP-classified), else guessed from the
// input name/title, else Generic.
func deviceType(app *InstalledApp, in *symexec.InputDecl) envmodel.DeviceType {
	if dt, pinned := envmodel.TypeForCapability(in.Capability); pinned {
		return dt
	}
	if dt, ok := app.Config.DeviceTypes[in.Name]; ok {
		return dt
	}
	if dt := envmodel.GuessTypeFromName(in.Name + " " + in.Title); dt != envmodel.Generic {
		return dt
	}
	return envmodel.Generic
}

// canonVar rewrites an app-local variable name into home-global canonical
// form:
//   - device attribute "tv1.switch"  → "<deviceKey>.switch"
//   - "location.mode", "env.*"       → unchanged (already global)
//   - "state.x"                      → "<app>!state.x" (app-private)
//   - bare input name                → "<app>!<input>" (substituted by
//     config values where available)
//
// Renamed variables are interned through the same table the symbolic
// executor uses for "<subject>.<attribute>" names (rule.InternDotted /
// InternBanged), so the instances of one catalog app share their names.
// A name over a configured device id is not: the id is client input, and
// interning it would grow the process-wide table with every binding any
// home ever sends, while an instance is compiled only once anyway.
func canonVar(app *InstalledApp, v rule.Var) rule.Var {
	name := v.Name
	if strings.HasPrefix(name, "env.") || strings.HasPrefix(name, "location.") {
		return v
	}
	if strings.HasPrefix(name, "state.") {
		v.Name = rule.InternBanged(app.Info.Name, name)
		return v
	}
	if dot := strings.IndexByte(name, '.'); dot >= 0 {
		ref := name[:dot]
		rest := name[dot+1:]
		if in := app.Info.Input(ref); in != nil && in.IsDevice() {
			if id := app.Config.Devices[ref]; id != "" {
				v.Name = id + "." + rest
			} else {
				v.Name = rule.InternDotted(deviceKey(app, ref), rest)
			}
			return v
		}
		v.Name = rule.InternBanged(app.Info.Name, name)
		return v
	}
	// Bare input or local name.
	v.Name = rule.InternBanged(app.Info.Name, name)
	return v
}

// configBindings returns substitutions for configured value inputs.
func configBindings(app *InstalledApp) map[string]rule.Term {
	bind := map[string]rule.Term{}
	for name, t := range app.Config.Values {
		bind[app.Info.Name+"!"+name] = t
	}
	return bind
}

// canonFormulaBind canonicalises a constraint against precomputed config
// bindings: rename variables, then apply configured value substitutions.
// Canonicalization runs once per rule at compile time (see compile.go);
// pair checks consume the compiled formulas.
func canonFormulaBind(app *InstalledApp, c rule.Constraint, bind map[string]rule.Term) rule.Constraint {
	if c == nil {
		return nil
	}
	renamed := rule.RenameVars(c, func(v rule.Var) rule.Var { return canonVar(app, v) })
	return rule.Substitute(renamed, bind)
}

// canonTermBind canonicalises a term (action parameter) against
// precomputed config bindings.
func canonTermBind(app *InstalledApp, t rule.Term, bind map[string]rule.Term) rule.Term {
	switch x := t.(type) {
	case rule.Var:
		cv := canonVar(app, x)
		if b, ok := bind[cv.Name]; ok {
			return b
		}
		return cv
	case rule.Sum:
		cv := canonVar(app, x.X)
		if b, ok := bind[cv.Name]; ok {
			if iv, ok := b.(rule.IntVal); ok {
				return rule.IntVal(int64(iv) + x.K)
			}
		}
		return rule.Sum{X: cv, K: x.K}
	}
	return t
}

// ---------- solver problem construction ----------

// declareVars declares solver domains for every variable in the formulas:
// device attributes get their capability-declared domains; location.mode
// gets the home's mode universe; env features get physical ranges; other
// enum-ish variables get the set of string values observed anywhere in the
// formulas. This is the walk-everything path used for ad-hoc formula sets
// (effect merges, setpoint bounds); the hot pair queries declare from
// precompiled plans instead (declareGroups in compile.go).
func (d *Detector) declareVars(p *solver.Problem, c1, c2 *compiledRule, formulas ...rule.Constraint) {
	for _, dec := range compileDecls(rule.Conj(formulas...)) {
		d.declareVar(p, c1, c2, dec.name, dec.v, dec.observed)
	}
}

// inputOptions returns the enum options app declares for the canonical
// input variable name ("<app>!<input>", see canonVar), or nil. Only the
// pair's own apps can own a name its formulas reference: canonicalization
// prefixes every app-local name with the app's name.
func inputOptions(app *InstalledApp, name string) []string {
	n := len(app.Info.Name)
	if len(name) <= n || name[n] != '!' || name[:n] != app.Info.Name {
		return nil
	}
	if in := app.Info.Input(name[n+1:]); in != nil && len(in.Options) > 0 {
		return in.Options
	}
	return nil
}

func addObserved(m map[string]map[string]bool, varName, val string) {
	if m[varName] == nil {
		m[varName] = map[string]bool{}
	}
	m[varName][val] = true
}

// declareVar declares one variable of a formula over the rule pair
// (c1, c2).
func (d *Detector) declareVar(p *solver.Problem, c1, c2 *compiledRule, name string, v rule.Var, observed []string) {
	if p.HasVar(name) {
		return
	}
	// Enum inputs declared with options get their declared domain.
	if opts := inputOptions(c1.app, name); opts != nil {
		p.AddEnumVar(name, extendVals(opts, observed))
		return
	}
	if opts := inputOptions(c2.app, name); opts != nil {
		p.AddEnumVar(name, extendVals(opts, observed))
		return
	}
	if name == "location.mode" {
		p.AddEnumVar(name, extendVals(d.modes, observed))
		return
	}
	if strings.HasPrefix(name, "env.") {
		lo, hi := envRange(strings.TrimPrefix(name, "env."))
		p.AddIntVar(name, lo, hi)
		return
	}
	// Device attribute: the suffix after the last '.' is the attribute.
	attr := name
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		attr = name[dot+1:]
	}
	if a := capability.AttrByName(attr); a != nil {
		switch a.Kind {
		case capability.Enum:
			p.AddEnumVar(name, extendVals(a.Values, observed))
			return
		case capability.Number:
			p.AddIntVar(name, a.Min, a.Max)
			return
		}
	}
	// Fallback: enum over observed strings, or a default int.
	if len(observed) > 0 || v.Type == rule.TypeString {
		vals := make([]string, 0, len(observed)+1)
		vals = append(vals, observed...)
		vals = append(vals, "\x00other")
		p.AddEnumVar(name, vals)
		return
	}
	if v.Type == rule.TypeBool {
		p.AddBoolVar(name)
		return
	}
	p.AddIntVar(name, solver.DefaultIntMin, solver.DefaultIntMax)
}

// extendVals appends the observed values missing from base, copying only
// when an extension is needed (AddEnumVar copies its argument anyway, so
// the unextended common case passes base through without an extra copy).
func extendVals(base, observed []string) []string {
	vals := base
	extended := false
	for _, o := range observed {
		if containsStr(vals, o) {
			continue
		}
		if !extended {
			vals = append(append(make([]string, 0, len(base)+len(observed)), base...), o)
			extended = true
			continue
		}
		vals = append(vals, o)
	}
	return vals
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// envRange gives physical bounds for environment features.
func envRange(feature string) (int64, int64) {
	switch feature {
	case "temperature":
		return -40, 150
	case "illuminance":
		return 0, 100000
	case "humidity":
		return 0, 100
	case "power":
		return 0, 100000
	case "timeOfDay":
		return 0, 1439
	case "sunrise", "sunset":
		return 0, 1439
	case "now":
		return 0, 1 << 40
	}
	return solver.DefaultIntMin, solver.DefaultIntMax
}

// ---------- action effects ----------

// deviceEffect is one attribute change produced by an action, in canonical
// variables.
type deviceEffect struct {
	varName string    // canonical "<deviceKey>.<attr>"
	value   rule.Term // new value (constant or parameter term)
	attr    string
}

// actionEffectsBind computes the device-state effects of a rule's action
// against precomputed config bindings (compile-time; pair checks read
// compiledRule.effects).
func actionEffectsBind(app *InstalledApp, r *rule.Rule, bind map[string]rule.Term) []deviceEffect {
	act := r.Action
	if act.Command == "setLocationMode" {
		var v rule.Term = rule.StrVal("?")
		if len(act.Params) > 0 {
			v = canonTermBind(app, act.Params[0], bind)
		}
		return []deviceEffect{{varName: "location.mode", value: v, attr: "mode"}}
	}
	in := app.Info.Input(act.Subject)
	if in == nil || !in.IsDevice() {
		return nil
	}
	ref := commandRef(act.Capability, act.Command)
	if ref == nil {
		return nil
	}
	key := deviceKey(app, act.Subject)
	var out []deviceEffect
	for _, e := range ref.Command.Effects {
		de := deviceEffect{varName: key + "." + e.Attribute, attr: e.Attribute}
		if e.FromParam >= 0 && e.FromParam < len(act.Params) {
			de.value = canonTermBind(app, act.Params[e.FromParam], bind)
		} else if e.FromParam < 0 {
			de.value = rule.StrVal(e.Value)
			if a := ref.Capability.Attr(e.Attribute); a != nil && a.Kind == capability.Number {
				de.value = rule.StrVal(e.Value) // numeric constant effects unused in registry
			}
		} else {
			continue
		}
		out = append(out, de)
	}
	return out
}

func commandRef(capName, cmd string) *capability.CommandRef {
	if c, ok := capability.Get(capName); ok {
		if k := c.Cmd(cmd); k != nil {
			return &capability.CommandRef{Capability: c, Command: k}
		}
	}
	refs := capability.CommandsNamed(cmd)
	if len(refs) > 0 {
		return &refs[0]
	}
	return nil
}

// envEffects computes the environment effects of a rule's action based on
// the device's physical type.
func envEffects(app *InstalledApp, r *rule.Rule) envmodel.Effects {
	in := app.Info.Input(r.Action.Subject)
	if in == nil || !in.IsDevice() {
		return nil
	}
	dt := deviceType(app, in)
	return envmodel.EffectsOf(dt, r.Action.Command)
}

// effectConstraint renders a device effect as an equality formula.
func (e deviceEffect) constraint() rule.Constraint {
	v := rule.Var{Name: e.varName, Kind: rule.VarDeviceAttr, Type: rule.TypeString}
	if _, isInt := e.value.(rule.IntVal); isInt {
		v.Type = rule.TypeInt
	}
	if vv, isVar := e.value.(rule.Var); isVar {
		v.Type = vv.Type
	}
	return rule.Cmp{Op: rule.OpEq, L: v, R: e.value}
}
