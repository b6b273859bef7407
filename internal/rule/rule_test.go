package rule

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func devVar(name string) Var { return Var{Name: name, Kind: VarDeviceAttr, Type: TypeString} }
func numVar(name string) Var { return Var{Name: name, Kind: VarDeviceAttr, Type: TypeInt} }
func inpVar(name string) Var { return Var{Name: name, Kind: VarUserInput, Type: TypeInt} }

func TestConjFlattening(t *testing.T) {
	a := Cmp{Op: OpEq, L: devVar("tv1.switch"), R: StrVal("on")}
	b := Cmp{Op: OpGt, L: numVar("tSensor.temperature"), R: IntVal(30)}
	c := Conj(a, Conj(b, TrueC))
	and, ok := c.(And)
	if !ok {
		t.Fatalf("Conj = %T, want And", c)
	}
	if len(and.Cs) != 2 {
		t.Fatalf("flattened conjuncts = %d, want 2", len(and.Cs))
	}
}

func TestConjShortcuts(t *testing.T) {
	a := Cmp{Op: OpEq, L: devVar("x"), R: StrVal("on")}
	if got := Conj(); got != TrueC {
		t.Errorf("empty Conj = %v", got)
	}
	if got := Conj(a); !reflect.DeepEqual(got, a) {
		t.Errorf("single Conj = %v", got)
	}
	if got := Conj(a, FalseC); got != FalseC {
		t.Errorf("Conj with false = %v", got)
	}
	if got := Disj(); got != FalseC {
		t.Errorf("empty Disj = %v", got)
	}
	if got := Disj(a, TrueC); got != TrueC {
		t.Errorf("Disj with true = %v", got)
	}
}

func TestNegateCmp(t *testing.T) {
	tests := []struct{ in, want CmpOp }{
		{OpEq, OpNe}, {OpNe, OpEq}, {OpLt, OpGe}, {OpGe, OpLt}, {OpGt, OpLe}, {OpLe, OpGt},
	}
	for _, tt := range tests {
		c := Cmp{Op: tt.in, L: numVar("a"), R: IntVal(1)}
		n, ok := Negate(c).(Cmp)
		if !ok || n.Op != tt.want {
			t.Errorf("Negate(%s) = %v, want op %s", tt.in, Negate(c), tt.want)
		}
	}
}

func TestNegateDeMorgan(t *testing.T) {
	a := Cmp{Op: OpEq, L: devVar("x"), R: StrVal("on")}
	b := Cmp{Op: OpGt, L: numVar("y"), R: IntVal(5)}
	n := Negate(And{Cs: []Constraint{a, b}})
	or, ok := n.(Or)
	if !ok || len(or.Cs) != 2 {
		t.Fatalf("Negate(And) = %v", n)
	}
	n2 := Negate(Or{Cs: []Constraint{a, b}})
	and, ok := n2.(And)
	if !ok || len(and.Cs) != 2 {
		t.Fatalf("Negate(Or) = %v", n2)
	}
}

func TestNegateInvolutionProperty(t *testing.T) {
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	f := func(opIdx uint8, k int64) bool {
		op := ops[int(opIdx)%len(ops)]
		c := Cmp{Op: op, L: numVar("v"), R: IntVal(k)}
		nn := Negate(Negate(c))
		return reflect.DeepEqual(nn, Constraint(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOpFlip(t *testing.T) {
	if OpLt.Flip() != OpGt || OpGe.Flip() != OpLe || OpEq.Flip() != OpEq {
		t.Error("Flip is wrong")
	}
}

func TestVarsCollection(t *testing.T) {
	c := Conj(
		Cmp{Op: OpEq, L: devVar("tv1.switch"), R: StrVal("on")},
		Or{Cs: []Constraint{
			Cmp{Op: OpGt, L: numVar("t"), R: inpVar("threshold1")},
			Not{C: Cmp{Op: OpEq, L: devVar("window1.switch"), R: StrVal("off")}},
		}},
	)
	got := Vars(c)
	want := []string{"t", "threshold1", "tv1.switch", "window1.switch"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Vars = %v, want %v", got, want)
	}
}

func TestSubstituteChain(t *testing.T) {
	// t = tSensor.temperature; predicate t > threshold1.
	pred := Cmp{Op: OpGt, L: Var{Name: "t", Kind: VarLocal, Type: TypeInt}, R: inpVar("threshold1")}
	bind := map[string]Term{
		"t": numVar("tSensor.temperature"),
	}
	got := Substitute(pred, bind)
	cmp, ok := got.(Cmp)
	if !ok {
		t.Fatalf("Substitute = %T", got)
	}
	if v, ok := cmp.L.(Var); !ok || v.Name != "tSensor.temperature" {
		t.Errorf("L = %v", cmp.L)
	}
}

func TestSubstituteTransitive(t *testing.T) {
	// a = b; b = 5; pred: a > 3 should become 5 > 3.
	pred := Cmp{Op: OpGt, L: Var{Name: "a", Kind: VarLocal, Type: TypeInt}, R: IntVal(3)}
	bind := map[string]Term{
		"a": Var{Name: "b", Kind: VarLocal, Type: TypeInt},
		"b": IntVal(5),
	}
	got := Substitute(pred, bind).(Cmp)
	if v, ok := got.L.(IntVal); !ok || v != 5 {
		t.Errorf("L = %v, want 5", got.L)
	}
}

func TestConditionFormula(t *testing.T) {
	cond := Condition{
		Data: []DataConstraint{
			{Var: "t", Term: numVar("tSensor.temperature")},
		},
		Predicates: []Constraint{
			Cmp{Op: OpGt, L: Var{Name: "t", Kind: VarLocal, Type: TypeInt}, R: inpVar("threshold1")},
			Cmp{Op: OpEq, L: devVar("window1.switch"), R: StrVal("off")},
		},
	}
	f := cond.Formula()
	vars := Vars(f)
	for _, v := range vars {
		if v == "t" {
			t.Errorf("local var t should have been substituted away: %v", vars)
		}
	}
}

func TestRuleString(t *testing.T) {
	r := comfortTVRule()
	s := r.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	for _, frag := range []string{"ComfortTV", "tv1", "switch", "window1", "on"} {
		if !containsStr(s, frag) {
			t.Errorf("String() missing %q: %s", frag, s)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func comfortTVRule() *Rule {
	return &Rule{
		App: "ComfortTV",
		ID:  "r1",
		Trigger: Trigger{
			Subject:    "tv1",
			Attribute:  "switch",
			Capability: "switch",
			Constraint: Cmp{Op: OpEq, L: devVar("tv1.switch"), R: StrVal("on")},
		},
		Condition: Condition{
			Data: []DataConstraint{
				{Var: "t", Term: numVar("tSensor.temperature")},
			},
			Predicates: []Constraint{
				Cmp{Op: OpGt, L: Var{Name: "t", Kind: VarLocal, Type: TypeInt}, R: inpVar("threshold1")},
				Cmp{Op: OpEq, L: devVar("window1.switch"), R: StrVal("off")},
			},
		},
		Action: Action{
			Subject:    "window1",
			Capability: "switch",
			Command:    "on",
		},
	}
}

func TestRuleJSONRoundTrip(t *testing.T) {
	r := comfortTVRule()
	r.Action.When = 300
	r.Action.Period = 60
	r.Action.Params = []Term{IntVal(50), StrVal("warm"), Sum{X: inpVar("threshold1"), K: -5}}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Rule
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(&got, r) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", &got, r)
	}
}

func TestRuleSetJSONRoundTrip(t *testing.T) {
	rs := &RuleSet{App: "ComfortTV", Rules: []*Rule{comfortTVRule()}}
	b, err := MarshalRuleSet(rs)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got struct {
		App   string  `json:"app"`
		Rules []*Rule `json:"rules"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(&RuleSet{App: got.App, Rules: got.Rules}, rs) {
		t.Errorf("round trip mismatch")
	}
}

func TestConstraintJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		c := randomConstraint(rng, 3)
		r := &Rule{App: "a", ID: "r", Trigger: Trigger{Subject: "d", Attribute: "switch", Constraint: c}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal %v: %v", c, err)
		}
		var got Rule
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(got.Trigger.Constraint, c) {
			t.Fatalf("round trip mismatch:\n got %v\nwant %v", got.Trigger.Constraint, c)
		}
	}
}

func randomConstraint(rng *rand.Rand, depth int) Constraint {
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	atom := func() Constraint {
		return Cmp{
			Op: ops[rng.Intn(len(ops))],
			L:  Var{Name: string(rune('a' + rng.Intn(4))), Kind: VarDeviceAttr, Type: TypeInt},
			R:  IntVal(rng.Int63n(100)),
		}
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(5) {
	case 0:
		return And{Cs: []Constraint{randomConstraint(rng, depth-1), randomConstraint(rng, depth-1)}}
	case 1:
		return Or{Cs: []Constraint{randomConstraint(rng, depth-1), randomConstraint(rng, depth-1)}}
	case 2:
		return Not{C: randomConstraint(rng, depth-1)}
	case 3:
		return Lit(rng.Intn(2) == 0)
	default:
		return atom()
	}
}

func TestTriggerHelpers(t *testing.T) {
	tr := Trigger{Subject: "tv1", Attribute: "switch"}
	if !tr.AnyChange() {
		t.Error("nil constraint should be AnyChange")
	}
	if tr.EventVar() != "tv1.switch" {
		t.Errorf("EventVar = %q", tr.EventVar())
	}
}

func TestNumberRules(t *testing.T) {
	rs := &RuleSet{App: "X", Rules: []*Rule{{}, {}, {ID: "keep"}}}
	rs.NumberRules()
	if rs.Rules[0].ID != "r1" || rs.Rules[1].ID != "r2" || rs.Rules[2].ID != "keep" {
		t.Errorf("ids = %q %q %q", rs.Rules[0].ID, rs.Rules[1].ID, rs.Rules[2].ID)
	}
	if rs.Rules[0].App != "X" {
		t.Errorf("app not filled in")
	}
}

func TestSumTermString(t *testing.T) {
	s1 := Sum{X: inpVar("th"), K: 5}
	s2 := Sum{X: inpVar("th"), K: -5}
	if s1.String() != "th + 5" || s2.String() != "th - 5" {
		t.Errorf("sum strings: %q %q", s1.String(), s2.String())
	}
}

func TestRenameVars(t *testing.T) {
	c := Cmp{Op: OpEq, L: devVar("tv1.switch"), R: StrVal("on")}
	got := RenameVars(c, func(v Var) Var {
		v.Name = "dev0." + v.Name
		return v
	})
	cmp := got.(Cmp)
	if cmp.L.(Var).Name != "dev0.tv1.switch" {
		t.Errorf("renamed = %v", cmp.L)
	}
}
