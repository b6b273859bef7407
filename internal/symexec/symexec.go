// Package symexec implements symbolic execution over SmartApp Groovy ASTs
// to extract automation rules completely and precisely (Sec. V-B of the
// paper). It explores every execution path from the lifecycle entry points
// (installed/updated), treating device references, user inputs, device
// attribute reads, HTTP responses and State as symbolic inputs; each path
// ends at a sink (capability-protected device command or sensitive
// SmartThings API), yielding one trigger–condition–action rule.
package symexec

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"homeguard/internal/capability"
	"homeguard/internal/groovy"
	"homeguard/internal/rule"
)

// InputDecl describes one `input` declaration (a symbolic source bound at
// install time).
type InputDecl struct {
	Name       string
	Type       string // raw type string: "capability.switch", "number", "enum", ...
	Capability string // capability name when Type is a capability grant
	Multiple   bool
	Required   bool
	Title      string
	Options    []string  // enum options when declared
	Default    rule.Term // defaultValue when declared
}

// IsDevice reports whether the input grants device access.
func (d *InputDecl) IsDevice() bool { return d.Capability != "" }

// AppInfo is the metadata gathered from definition() and preferences.
type AppInfo struct {
	Name        string
	Namespace   string
	Description string
	Category    string
	Inputs      []InputDecl
}

// Input returns the named input declaration, or nil.
func (a *AppInfo) Input(name string) *InputDecl {
	for i := range a.Inputs {
		if a.Inputs[i].Name == name {
			return &a.Inputs[i]
		}
	}
	return nil
}

// DeviceInputs returns the inputs that grant device capabilities.
func (a *AppInfo) DeviceInputs() []*InputDecl {
	var out []*InputDecl
	for i := range a.Inputs {
		if a.Inputs[i].IsDevice() {
			out = append(out, &a.Inputs[i])
		}
	}
	return out
}

// ValueInputs returns the non-device inputs (user-provided values).
func (a *AppInfo) ValueInputs() []*InputDecl {
	var out []*InputDecl
	for i := range a.Inputs {
		if !a.Inputs[i].IsDevice() {
			out = append(out, &a.Inputs[i])
		}
	}
	return out
}

// Result is the output of rule extraction on one app.
//
// A Result is immutable once Extract returns: the executor hands it off
// and nothing in this module writes to it (or to the Rules and Inputs it
// points at) afterwards — detection only reads rule structure. That makes
// a Result safe to share across goroutines and across homes without
// copying, which internal/extractcache exploits to run symbolic execution
// once per distinct app fleet-wide. Code that needs a modified variant
// must build a new Result rather than editing a shared one.
type Result struct {
	App      AppInfo
	Rules    *rule.RuleSet
	Warnings []string
	Paths    int // number of explored execution paths
}

// Limits bound the symbolic exploration. Zero values select defaults.
type Limits struct {
	MaxPaths     int // maximum explored paths per app (default 4096)
	MaxCallDepth int // maximum method-inlining depth (default 24)
}

func (l Limits) withDefaults() Limits {
	if l.MaxPaths == 0 {
		l.MaxPaths = 4096
	}
	if l.MaxCallDepth == 0 {
		l.MaxCallDepth = 24
	}
	return l
}

// ScanPreferences parses only the metadata of a script: definition()
// fields and input declarations. The concrete interpreter and the
// instrumenter reuse it.
func ScanPreferences(script *groovy.Script) AppInfo {
	ex := newExecutor(script, Limits{})
	ex.scanPreferences()
	return ex.app
}

// executorPool recycles executor shells across extractions. Everything a
// Result references (app info, rules, warnings) is abandoned at release;
// the reusable parts are the maps (cleared, keeping capacity) and the
// scratch/state buffers.
var executorPool sync.Pool

// newExecutor is the one construction path for executors: every entry
// point (full extraction, preference scanning, the shallow baseline) goes
// through it, so limit defaults are applied in exactly one place and
// cannot drift between extraction modes.
func newExecutor(script *groovy.Script, lim Limits) *executor {
	ex, _ := executorPool.Get().(*executor)
	if ex == nil {
		ex = &executor{}
	}
	ex.script = script
	ex.lim = lim.withDefaults()
	return ex
}

// release returns the executor shell to the pool. Callers must be done
// with every field that escapes into the Result (they are abandoned, not
// reused; only map capacity and scratch buffers survive).
func (ex *executor) release() {
	ex.script = nil
	ex.app = AppInfo{}
	ex.rules = nil
	ex.warns = nil
	ex.paths = 0
	clear(ex.inputs)
	clear(ex.inputVals)
	clear(ex.litMemo)
	ex.settingsVal = mapVal{}
	ex.trigScratch = ex.trigScratch[:0]
	ex.condScratch = ex.condScratch[:0]
	executorPool.Put(ex)
}

// Extract parses src and extracts rules. appName overrides the name from
// definition() when non-empty.
func Extract(src, appName string) (*Result, error) {
	script, err := groovy.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("symexec: %w", err)
	}
	return ExtractScript(script, appName, Limits{})
}

// ErrNoDefinition reports a source that declares no app: it has no
// definition(name: ...) call and the caller gave no name override.
// Every SmartApp declares its name there, and the name prefixes every
// canonical variable the detector derives, so such a source is not an app
// to install.
var ErrNoDefinition = errors.New("symexec: source declares no app (no definition(name: ...))")

// ExtractScript extracts rules from a parsed script. appName overrides the
// name from definition() when non-empty; with neither, it fails
// ErrNoDefinition.
func ExtractScript(script *groovy.Script, appName string, lim Limits) (*Result, error) {
	ex := newExecutor(script, lim)
	ex.scanPreferences()
	if appName != "" {
		ex.app.Name = appName
	}
	if ex.app.Name == "" {
		ex.release()
		return nil, ErrNoDefinition
	}
	ex.run()
	rs := &rule.RuleSet{App: ex.app.Name, Rules: ex.rules}
	rs.NumberRules()
	slices.Sort(ex.warns)
	res := &Result{App: ex.app, Rules: rs, Warnings: dedupe(ex.warns), Paths: ex.paths}
	ex.release()
	return res, nil
}

// dedupe drops duplicates from a sorted list (callers sort first, so
// duplicates are adjacent), returning nil for an empty input.
func dedupe(in []string) []string {
	var out []string
	for _, s := range in {
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// executor drives the symbolic exploration of one app.
type executor struct {
	script *groovy.Script
	app    AppInfo
	inputs map[string]*InputDecl
	lim    Limits

	rules []*rule.Rule
	warns []string
	paths int

	// Per-executor memo tables and scratch buffers; extraction of one app
	// is single-goroutine, so none of these need locking.
	inputVals   map[*InputDecl]value  // symbolic value per input, built lazily
	litMemo     map[groovy.Expr]value // boxed literal values per AST node
	settingsVal mapVal                // the `settings` object, built lazily
	trigScratch []rule.Constraint
	condScratch []rule.Constraint
	stateBufs   [][]*state // recycled execBlock state lists
	endsScratch []*state   // recycled per-handler terminal-state list
}

func (ex *executor) warnf(format string, args ...any) {
	if len(args) == 0 {
		// Constant diagnostics (the common case on hot paths) skip the
		// formatter entirely.
		ex.warns = append(ex.warns, format)
		return
	}
	ex.warns = append(ex.warns, fmt.Sprintf(format, args...))
}

// scanPreferences collects definition() metadata and input declarations
// in one AST pass (FindCalls per call name walked the script once per
// name and allocated the intermediate call lists). Duplicate input names
// are rejected by a linear scan — apps declare a handful of inputs, so a
// set would cost more than it saves.
func (ex *executor) scanPreferences() {
	groovy.InspectScript(ex.script, func(n groovy.Node) bool {
		call, ok := n.(*groovy.Call)
		if !ok {
			return true
		}
		switch call.Method {
		case "definition":
			if v := stringArg(call.NamedArg("name")); v != "" {
				ex.app.Name = v
			}
			if v := stringArg(call.NamedArg("namespace")); v != "" {
				ex.app.Namespace = v
			}
			if v := stringArg(call.NamedArg("description")); v != "" {
				ex.app.Description = v
			}
			if v := stringArg(call.NamedArg("category")); v != "" {
				ex.app.Category = v
			}
		case "input":
			decl, ok := parseInputCall(call)
			if ok {
				dup := false
				for i := range ex.app.Inputs {
					if ex.app.Inputs[i].Name == decl.Name {
						dup = true
						break
					}
				}
				if !dup {
					if ex.app.Inputs == nil {
						ex.app.Inputs = make([]InputDecl, 0, 8)
					}
					ex.app.Inputs = append(ex.app.Inputs, decl)
				}
			}
		}
		return true
	})
	// Point the lookup map at the final slice backing array.
	if ex.inputs == nil {
		ex.inputs = make(map[string]*InputDecl, len(ex.app.Inputs))
	}
	for i := range ex.app.Inputs {
		ex.inputs[ex.app.Inputs[i].Name] = &ex.app.Inputs[i]
	}
}

func parseInputCall(in *groovy.Call) (InputDecl, bool) {
	// input "name", "type", named...  (or named-only form with name:/type:)
	var name, typ string
	if len(in.Args) >= 1 {
		name = stringArg(in.Args[0])
	}
	if len(in.Args) >= 2 {
		typ = stringArg(in.Args[1])
	}
	if name == "" {
		name = stringArg(in.NamedArg("name"))
	}
	if typ == "" {
		typ = stringArg(in.NamedArg("type"))
	}
	if name == "" || typ == "" {
		return InputDecl{}, false
	}
	decl := InputDecl{Name: name, Type: typ, Title: stringArg(in.NamedArg("title"))}
	if strings.HasPrefix(typ, "capability.") {
		decl.Capability = strings.TrimPrefix(typ, "capability.")
	} else if strings.HasPrefix(typ, "device.") {
		// Non-standard device types (the paper's Feed My Pet / Sleepy Time
		// special cases) — treated as a generic actuator capability.
		decl.Capability = strings.TrimPrefix(typ, "device.")
		if _, ok := capability.Get(decl.Capability); !ok {
			decl.Capability = "switch"
		}
	}
	if b, ok := boolArg(in.NamedArg("multiple")); ok {
		decl.Multiple = b
	}
	if b, ok := boolArg(in.NamedArg("required")); ok {
		decl.Required = b
	}
	if opts := in.NamedArg("options"); opts != nil {
		if l, ok := opts.(*groovy.ListLit); ok {
			for _, e := range l.Elems {
				if s := stringArg(e); s != "" {
					decl.Options = append(decl.Options, s)
				}
			}
		}
	}
	if dv := in.NamedArg("defaultValue"); dv != nil {
		decl.Default = litTerm(dv)
	}
	return decl, true
}

// stringArg extracts a constant string from an expression, or "".
func stringArg(e groovy.Expr) string {
	switch x := e.(type) {
	case *groovy.StrLit:
		return x.Value
	case *groovy.GStringLit:
		if x.IsPlain() {
			return x.PlainText()
		}
	}
	return ""
}

func boolArg(e groovy.Expr) (bool, bool) {
	if b, ok := e.(*groovy.BoolLit); ok {
		return b.Value, true
	}
	return false, false
}

// litTerm converts a literal expression to a rule term, or nil.
func litTerm(e groovy.Expr) rule.Term {
	switch x := e.(type) {
	case *groovy.StrLit:
		return rule.StrVal(x.Value)
	case *groovy.GStringLit:
		if x.IsPlain() {
			return rule.StrVal(x.PlainText())
		}
	case *groovy.NumLit:
		if x.IsInt {
			return rule.IntVal(x.Int)
		}
		return rule.IntVal(int64(x.Float)) // integral approximation
	case *groovy.BoolLit:
		return rule.BoolVal(x.Value)
	}
	return nil
}

// run discovers triggers from the entry points and symbolically executes
// each handler.
func (ex *executor) run() {
	triggers := ex.collectTriggers()
	for _, tr := range triggers {
		h := ex.script.Method(tr.handler)
		if h == nil {
			ex.warnf("handler %s not found", tr.handler)
			continue
		}
		st := newState(tr.trigger)
		st.period = tr.period
		// Bind the handler's event parameter.
		if len(h.Params) > 0 {
			st.env.define(h.Params[0].Name, valEvent)
		}
		ends := ex.execBlock(h.Body.Stmts, st, ex.endsScratch[:0])
		ex.paths += countMult(ends)
		ex.endsScratch = ends
	}
}

// discoveredTrigger pairs a trigger with its handler method name.
type discoveredTrigger struct {
	trigger rule.Trigger
	handler string
	period  int
	// rawAttr is the subscription's raw attribute argument (including a
	// ".value" constraint suffix when present): the dedup key component
	// that distinguishes triggers without rendering their constraint.
	rawAttr string
}

// collectTriggers abstractly evaluates the lifecycle entry points,
// inlining helper calls, to find subscribe()/schedule()/runEvery*() calls.
// Only `updated` (falling back to `installed`) is evaluated, mirroring the
// app lifecycle: updated() re-subscribes everything.
// trigKey identifies a discovered trigger without string concatenation or
// constraint rendering (the former concatenated map keys allocated per
// subscribe call visited). The attribute field carries the subscription's
// raw attribute argument, whose optional ".value" suffix encodes the
// trigger constraint one-to-one.
type trigKey struct {
	subject   string
	attribute string
	handler   string
}

func (ex *executor) collectTriggers() []discoveredTrigger {
	out := make([]discoveredTrigger, 0, 4)
	seen := make(map[trigKey]bool, 4)
	entry := ex.script.Method("updated")
	if entry == nil {
		entry = ex.script.Method("installed")
	}
	if entry == nil {
		ex.warnf("no lifecycle entry point (installed/updated)")
		return nil
	}
	// One shared visitor closure: helper inlining recurses by re-invoking
	// groovy.Inspect with the same callback around a saved/restored depth,
	// instead of building a fresh closure per visited method.
	depth := 0
	var visit func(n groovy.Node) bool
	walkMethod := func(m *groovy.MethodDecl) {
		groovy.Inspect(m.Body, visit)
	}
	visit = func(n groovy.Node) bool {
		call, ok := n.(*groovy.Call)
		if !ok {
			return true
		}
		switch call.Method {
		case "subscribe":
			if tr, ok := ex.parseSubscribe(call); ok {
				key := trigKey{subject: tr.trigger.Subject, attribute: tr.rawAttr, handler: tr.handler}
				if !seen[key] {
					seen[key] = true
					out = append(out, tr)
				}
			}
		case "schedule", "runOnce":
			if len(call.Args) >= 2 {
				if h := handlerName(call.Args[1]); h != "" {
					tr := discoveredTrigger{
						trigger: rule.Trigger{Subject: "time", Attribute: "schedule"},
						handler: h,
						period:  86400,
					}
					if call.Method == "runOnce" {
						tr.period = 0
					}
					key := trigKey{subject: "time", handler: h}
					if !seen[key] {
						seen[key] = true
						out = append(out, tr)
					}
				}
			}
		case "runDaily":
			// Undocumented API used by Camera Power Scheduler; modeled
			// after the paper reported adding it (Sec. VIII-B).
			if len(call.Args) >= 1 {
				if h := handlerName(call.Args[0]); h != "" {
					key := trigKey{subject: "time", handler: h}
					if !seen[key] {
						seen[key] = true
						out = append(out, discoveredTrigger{
							trigger: rule.Trigger{Subject: "time", Attribute: "schedule"},
							handler: h,
							period:  86400,
						})
					}
				}
			}
		case "runEvery1Minute", "runEvery5Minutes", "runEvery10Minutes",
			"runEvery15Minutes", "runEvery30Minutes", "runEvery1Hour", "runEvery3Hours":
			if len(call.Args) >= 1 {
				if h := handlerName(call.Args[0]); h != "" {
					key := trigKey{subject: "time", handler: h}
					if !seen[key] {
						seen[key] = true
						out = append(out, discoveredTrigger{
							trigger: rule.Trigger{Subject: "time", Attribute: "schedule"},
							handler: h,
							period:  periodOf(call.Method),
						})
					}
				}
			}
		default:
			// Inline helper methods (initialize() etc.).
			if call.Receiver == nil {
				if m2 := ex.script.Method(call.Method); m2 != nil && depth < ex.lim.MaxCallDepth {
					depth++
					walkMethod(m2)
					depth--
				}
			}
		}
		return true
	}
	walkMethod(entry)
	return out
}

func periodOf(api string) int {
	switch api {
	case "runEvery1Minute":
		return 60
	case "runEvery5Minutes":
		return 300
	case "runEvery10Minutes":
		return 600
	case "runEvery15Minutes":
		return 900
	case "runEvery30Minutes":
		return 1800
	case "runEvery1Hour":
		return 3600
	case "runEvery3Hours":
		return 10800
	}
	return 0
}

func handlerName(e groovy.Expr) string {
	switch x := e.(type) {
	case *groovy.Ident:
		return x.Name
	case *groovy.StrLit:
		return x.Value
	case *groovy.GStringLit:
		if x.IsPlain() {
			return x.PlainText()
		}
	}
	return ""
}

// parseSubscribe decodes one subscribe(...) call into a trigger.
func (ex *executor) parseSubscribe(call *groovy.Call) (discoveredTrigger, bool) {
	if len(call.Args) < 2 {
		return discoveredTrigger{}, false
	}
	var tr rule.Trigger
	// Subject.
	switch subj := call.Args[0].(type) {
	case *groovy.Ident:
		switch subj.Name {
		case "location":
			tr.Subject = "location"
		case "app":
			tr.Subject = "app"
		default:
			in := ex.inputs[subj.Name]
			if in == nil || !in.IsDevice() {
				ex.warnf("subscribe on unknown device %q", subj.Name)
				return discoveredTrigger{}, false
			}
			tr.Subject = subj.Name
			tr.Capability = in.Capability
		}
	default:
		return discoveredTrigger{}, false
	}
	// Attribute (and optional ".value" constraint) + handler.
	var handler string
	var rawAttr string
	if len(call.Args) == 2 {
		// subscribe(app, appTouch) / subscribe(location, modeChangeHandler)
		handler = handlerName(call.Args[1])
		switch tr.Subject {
		case "app":
			tr.Attribute = "touch"
		case "location":
			tr.Attribute = "mode"
		default:
			return discoveredTrigger{}, false
		}
	} else {
		attr := stringArg(call.Args[1])
		rawAttr = attr
		handler = handlerName(call.Args[2])
		if attr == "" {
			ex.warnf("non-constant subscription attribute")
			return discoveredTrigger{}, false
		}
		if dot := strings.IndexByte(attr, '.'); dot >= 0 {
			tr.Attribute = attr[:dot]
			val := attr[dot+1:]
			tr.Constraint = rule.Cmp{
				Op: rule.OpEq,
				L:  eventVar(tr.Subject, tr.Attribute, ex.attrType(tr.Capability, tr.Attribute)),
				R:  rule.StrVal(val),
			}
		} else {
			tr.Attribute = attr
		}
		if tr.Subject == "location" && tr.Attribute == "" {
			tr.Attribute = "mode"
		}
	}
	if handler == "" {
		return discoveredTrigger{}, false
	}
	if rawAttr == "" {
		rawAttr = tr.Attribute // 2-arg forms: the implied attribute
	}
	return discoveredTrigger{trigger: tr, handler: handler, rawAttr: rawAttr}, true
}

// attrType returns the value type of an attribute within a capability
// (falling back to a registry-wide lookup).
func (ex *executor) attrType(capName, attr string) rule.ValueType {
	var a *capability.Attribute
	if c, ok := capability.Get(capName); ok {
		a = c.Attr(attr)
	}
	if a == nil {
		a = capability.AttrByName(attr)
	}
	if a == nil {
		return rule.TypeString
	}
	switch a.Kind {
	case capability.Number:
		return rule.TypeInt
	default:
		return rule.TypeString
	}
}

// eventVar names the symbolic variable carrying the triggering event's
// value: "<subject>.<attribute>". The name is interned: the same
// subject/attribute pair is read on every path of every rule, and the
// detect compile step interns through the same table, so equal names share
// one string fleet-wide instead of being concatenated per evaluation.
func eventVar(subject, attr string, t rule.ValueType) rule.Var {
	return rule.Var{Name: rule.InternDotted(subject, attr), Kind: rule.VarEvent, Type: t}
}

// deviceAttrVar names a device attribute read: "<device>.<attribute>".
func deviceAttrVar(dev, attr string, t rule.ValueType) rule.Var {
	return rule.Var{Name: rule.InternDotted(dev, attr), Kind: rule.VarDeviceAttr, Type: t}
}
