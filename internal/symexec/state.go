package symexec

import (
	"homeguard/internal/groovy"
	"homeguard/internal/rule"
)

// value is a symbolic value flowing through the interpreter.
type value interface{ isValue() }

// termVal wraps a solver-tracked term (variable or constant).
type termVal struct{ t rule.Term }

// boolVal is a boolean-valued expression represented as a formula.
type boolVal struct{ c rule.Constraint }

// deviceVal is a device reference (or device collection) granted via input.
type deviceVal struct{ in *InputDecl }

// eventVal is the event object passed to a handler.
type eventVal struct{}

// devStateVal is the object returned by device.currentState("attr"): its
// .value property reads the attribute.
type devStateVal struct {
	dev  string
	attr string
	typ  rule.ValueType
}

// listVal is a (partially) known list.
type listVal struct{ elems []value }

// mapVal is a (partially) known map.
type mapVal struct{ entries map[string]value }

// closureVal is a closure literal with its defining scope.
type closureVal struct {
	cl  *groovy.ClosureExpr
	env *scope
}

// locationVal is the `location` object.
type locationVal struct{}

// stateVal is the `state` / `atomicState` object (cross-execution storage,
// treated as symbolic input on first read).
type stateVal struct{ atomic bool }

// unknownVal is a value the executor cannot track; operations on it
// degrade gracefully. The label is static documentation for debugger
// inspection — nothing reads it, so hot paths share pre-boxed singletons
// instead of rendering per-site detail.
type unknownVal struct{ why string }

func (termVal) isValue()     {}
func (boolVal) isValue()     {}
func (deviceVal) isValue()   {}
func (eventVal) isValue()    {}
func (devStateVal) isValue() {}
func (listVal) isValue()     {}
func (mapVal) isValue()      {}
func (closureVal) isValue()  {}
func (locationVal) isValue() {}
func (stateVal) isValue()    {}
func (unknownVal) isValue()  {}

// Pre-boxed singletons for the static values the evaluator returns on hot
// paths: boxing a struct into the value interface allocates, and these
// carry no per-site information.
var (
	unkExpr                value = unknownVal{"expr"}
	unkRange               value = unknownVal{"range"}
	unkTernary             value = unknownVal{"ternary"}
	unkIndex               value = unknownVal{"index"}
	unkElement             value = unknownVal{"element"}
	unkInterpString        value = unknownVal{"interpolated string"}
	unkArg                 value = unknownVal{"arg"}
	unkClosureArg          value = unknownVal{"closure arg"}
	unkIter                value = unknownVal{"iter"}
	unkHTTPResponse        value = unknownVal{"http response"}
	unkUninit              value = unknownVal{"uninitialised"}
	unkImplicitIt          value = unknownVal{"implicit it"}
	unkAppObject           value = unknownVal{"app object"}
	unkLNotUnknown         value = unknownVal{"!unknown"}
	unkLAndAnd             value = unknownVal{"&&"}
	unkLAggregate          value = unknownVal{"aggregate"}
	unkLArith              value = unknownVal{"arith"}
	unkLBinop              value = unknownVal{"binop"}
	unkLCapabilityQuery    value = unknownVal{"capability query"}
	unkLCmp                value = unknownVal{"cmp"}
	unkLCommandResult      value = unknownVal{"command result"}
	unkLContains           value = unknownVal{"contains"}
	unkLCurrentstate       value = unknownVal{"currentState"}
	unkLCurrentvalue       value = unknownVal{"currentValue"}
	unkLDepthLimit         value = unknownVal{"depth limit"}
	unkLEquals             value = unknownVal{"equals"}
	unkLEvtDate            value = unknownVal{"evt.date"}
	unkLEvtDevice          value = unknownVal{"evt.device"}
	unkLEvtDisplayname     value = unknownVal{"evt.displayName"}
	unkLHistoryQuery       value = unknownVal{"history query"}
	unkLIn                 value = unknownVal{"in"}
	unkLIterResult         value = unknownVal{"iter result"}
	unkLLocationModes      value = unknownVal{"location.modes"}
	unkLMath               value = unknownVal{"math"}
	unkLMult               value = unknownVal{"mult"}
	unkLNegate             value = unknownVal{"negate"}
	unkLParsedPayload      value = unknownVal{"parsed payload"}
	unkLSetmode            value = unknownVal{"setMode"}
	unkLSinkResult         value = unknownVal{"sink result"}
	unkLStringPredicate    value = unknownVal{"string predicate"}
	unkLSum                value = unknownVal{"sum"}
	unkLTimeofdayisbetween value = unknownVal{"timeOfDayIsBetween"}
	unkLTimetoday          value = unknownVal{"timeToday"}
	unkLTts                value = unknownVal{"tts"}
	unkLUnary              value = unknownVal{"unary"}
	unkLOrOr               value = unknownVal{"||"}

	valEvent           value = eventVal{}
	valLocation        value = locationVal{}
	valState           value = stateVal{}
	valAtomicState     value = stateVal{atomic: true}
	valTrue            value = termVal{rule.BoolVal(true)}
	valFalse           value = termVal{rule.BoolVal(false)}
	unkIdent           value = unknownVal{"ident"}
	unkLocationProp    value = unknownVal{"location property"}
	unkMapProp         value = unknownVal{"map property"}
	unkDeviceStateProp value = unknownVal{"deviceState property"}
	unkProp            value = unknownVal{"property"}
	unkEventProp       value = unknownVal{"event property"}
	unkDeviceProp      value = unknownVal{"device property"}
	unkDeviceCall      value = unknownVal{"device call"}
	unkCall            value = unknownVal{"call"}
	unkLocationCall    value = unknownVal{"location call"}
	unkScalarCall      value = unknownVal{"scalar call"}
	unkAPICall         value = unknownVal{"api call"}
	unkNew             value = unknownVal{"new"}
	valNow             value = termVal{rule.Var{Name: "env.now", Kind: rule.VarEnvFeature, Type: rule.TypeInt}}
	valLocationMode    value = termVal{rule.Var{Name: "location.mode", Kind: rule.VarDeviceAttr, Type: rule.TypeString}}
)

// scope is one lexical scope in the chain.
//
// Scopes are copy-on-write across path forks: fork marks every frame of
// the chain frozen and shares the chain between the two paths, and the
// first write a path performs through a frozen frame copies just the
// frames between its leaf and the written frame (usually only the leaf).
// Unfrozen frames always form a prefix of the chain — a frame is only ever
// unfrozen when every frame below it is too — so freezing can stop at the
// first frozen frame. A frozen frame is immutable forever: paths that
// copied it keep reading the original through their copies' parent links.
type scope struct {
	vars   map[string]value
	parent *scope
	frozen bool
}

// newScope returns a fresh frame; its vars map is created on first write
// (many frames — loop bodies, argument-less closures — never get one).
func newScope(parent *scope) *scope {
	return &scope{parent: parent}
}

// define creates name directly in this frame. Only safe on a frame that
// is known to be private (freshly created, never forked); forked states
// must write through state.setVar/defineVar so copy-on-write applies.
func (s *scope) define(name string, v value) {
	if s.vars == nil {
		s.vars = make(map[string]value, 4)
	}
	s.vars[name] = v
}

func (s *scope) get(name string) (value, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// thaw returns a mutable copy of a frozen frame (same vars, same parent).
func (s *scope) thaw() *scope {
	c := &scope{vars: make(map[string]value, len(s.vars)+1), parent: s.parent}
	for k, v := range s.vars {
		c.vars[k] = v
	}
	return c
}

// state is one symbolic execution path.
//
// The constraint slices are shared with the path's fork siblings up to the
// fork point: fork caps both sides' slices at their current length, so the
// first append after a fork reallocates instead of clobbering a sibling's
// shared backing array.
type state struct {
	env     *scope
	data    []rule.DataConstraint
	preds   []rule.Constraint
	trigger rule.Trigger
	when    int // accumulated runIn delay (seconds); -1 when symbolic
	period  int
	depth   int  // method-inlining depth
	ret     bool // a return statement ended the current method
	retVal  value
	// mult counts how many identical explored paths this state stands for:
	// indistinguishable fork siblings are merged (see mergeAdjacent) and
	// re-expanded at rule emission and path counting.
	mult int
}

func newState(tr rule.Trigger) *state {
	return &state{env: newScope(nil), trigger: tr, mult: 1}
}

// fork clones the path state in O(scope depth): the environment chain is
// frozen and shared (copy-on-write), and the constraint slices are capped
// so both sides copy lazily on their next append.
func (st *state) fork() *state {
	for sc := st.env; sc != nil && !sc.frozen; sc = sc.parent {
		sc.frozen = true
	}
	st.data = st.data[:len(st.data):len(st.data)]
	st.preds = st.preds[:len(st.preds):len(st.preds)]
	return &state{
		env:     st.env,
		data:    st.data,
		preds:   st.preds,
		trigger: st.trigger,
		when:    st.when,
		period:  st.period,
		depth:   st.depth,
		mult:    st.mult,
	}
}

// setVar assigns to the scope frame where name is defined, or defines it
// in the leaf frame, copying frozen frames on the way (copy-on-write).
func (st *state) setVar(name string, v value) {
	// Find the defining frame's depth.
	d := 0
	found := false
	for sc := st.env; sc != nil; sc = sc.parent {
		if _, ok := sc.vars[name]; ok {
			found = true
			break
		}
		d++
	}
	if !found {
		d = 0
	}
	st.frameAt(d).define(name, v)
}

// defineVar creates name in the leaf frame.
func (st *state) defineVar(name string, v value) {
	st.frameAt(0).define(name, v)
}

// frameAt returns the frame at depth d, thawing the frozen frames on the
// path from the leaf so the returned frame is mutable and private.
func (st *state) frameAt(d int) *scope {
	sc := st.env
	if !sc.frozen && d == 0 {
		return sc // fast path: private leaf write
	}
	var prev *scope
	for i := 0; ; i++ {
		if sc.frozen {
			c := sc.thaw()
			if prev == nil {
				st.env = c
			} else {
				prev.parent = c
			}
			sc = c
		}
		if i == d {
			return sc
		}
		prev = sc
		sc = sc.parent
	}
}

// assume appends a path predicate.
func (st *state) assume(c rule.Constraint) {
	if c == nil {
		return
	}
	if lit, ok := c.(rule.Lit); ok && bool(lit) {
		return
	}
	st.preds = append(st.preds, c)
}

// sameFork reports whether two states are indistinguishable by
// construction: they share the environment chain (no write since their
// common fork), the same constraint-slice backing at the same length, and
// the same scalar path attributes. Such states explore identical suffixes.
func sameFork(a, b *state) bool {
	return a.env == b.env &&
		a.ret == b.ret && a.retVal == nil && b.retVal == nil &&
		a.when == b.when && a.period == b.period && a.depth == b.depth &&
		sameSlice(a.data, b.data) && samePreds(a.preds, b.preds)
}

func sameSlice(a, b []rule.DataConstraint) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

func samePreds(a, b []rule.Constraint) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// asTerm converts a value to a rule term when possible.
func asTerm(v value) (rule.Term, bool) {
	switch x := v.(type) {
	case termVal:
		return x.t, true
	case devStateVal:
		return deviceAttrVar(x.dev, x.attr, x.typ), true
	case boolVal:
		// A formula used as a value has no term representation.
		return nil, false
	}
	return nil, false
}

// asConstraint converts a value used in boolean context into a formula.
// Unknown values yield (nil, false): the caller explores both branches
// unconstrained.
func asConstraint(v value) (rule.Constraint, bool) {
	switch x := v.(type) {
	case boolVal:
		return x.c, true
	case termVal:
		switch t := x.t.(type) {
		case rule.BoolVal:
			return rule.Lit(bool(t)), true
		case rule.Var:
			if t.Type == rule.TypeBool {
				return rule.Cmp{Op: rule.OpEq, L: t, R: rule.BoolVal(true)}, true
			}
			// Groovy truth on a symbolic non-bool value: unknown.
			return nil, false
		case rule.StrVal:
			return rule.Lit(string(t) != ""), true
		case rule.IntVal:
			return rule.Lit(int64(t) != 0), true
		}
	}
	return nil, false
}
