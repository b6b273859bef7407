package frontend

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"homeguard/internal/detect"
	"homeguard/internal/rule"
	"homeguard/internal/solver"
)

func comfortRule() *rule.Rule {
	return &rule.Rule{
		App: "ComfortTV", ID: "r1",
		Trigger: rule.Trigger{
			Subject: "tv1", Attribute: "switch", Capability: "switch",
			Constraint: rule.Cmp{
				Op: rule.OpEq,
				L:  rule.Var{Name: "tv1.switch", Kind: rule.VarEvent, Type: rule.TypeString},
				R:  rule.StrVal("on"),
			},
		},
		Condition: rule.Condition{
			Predicates: []rule.Constraint{
				rule.Cmp{
					Op: rule.OpGt,
					L:  rule.Var{Name: "tSensor.temperature", Kind: rule.VarDeviceAttr, Type: rule.TypeInt},
					R:  rule.Var{Name: "threshold1", Kind: rule.VarUserInput, Type: rule.TypeInt},
				},
			},
		},
		Action: rule.Action{Subject: "window1", Capability: "switch", Command: "on"},
	}
}

func closeRule() *rule.Rule {
	r := comfortRule()
	r.App = "ColdDefender"
	r.Action.Command = "off"
	return r
}

func TestDescribeRuleSentence(t *testing.T) {
	s := DescribeRule(comfortRule())
	for _, frag := range []string{"When", "tv1", "becomes on", "temperature", "window1", "on"} {
		if !strings.Contains(s, frag) {
			t.Errorf("sentence missing %q: %s", frag, s)
		}
	}
	if !strings.HasSuffix(s, ".") {
		t.Errorf("sentence should end with a period: %s", s)
	}
}

func TestDescribeDelayedAction(t *testing.T) {
	r := comfortRule()
	r.Action.When = 300
	r.Action.Period = 86400
	s := DescribeRule(r)
	if !strings.Contains(s, "after 300 seconds") || !strings.Contains(s, "every 86400 seconds") {
		t.Errorf("delays not rendered: %s", s)
	}
}

func TestDescribeScheduledTrigger(t *testing.T) {
	r := comfortRule()
	r.Trigger = rule.Trigger{Subject: "time", Attribute: "schedule"}
	s := DescribeRule(r)
	if !strings.Contains(s, "scheduled time") {
		t.Errorf("schedule trigger not rendered: %s", s)
	}
}

func TestDescribeThreatAllKinds(t *testing.T) {
	r1, r2 := comfortRule(), closeRule()
	for _, k := range detect.AllKinds {
		th := detect.Threat{Kind: k, R1: r1, R2: r2}
		s := DescribeThreat(th)
		if !strings.Contains(s, string(k)) {
			t.Errorf("kind tag missing in %q", s)
		}
		if !strings.Contains(s, "ComfortTV/r1") {
			t.Errorf("rule id missing in %q", s)
		}
		if len(s) < 40 {
			t.Errorf("explanation too short for %s: %q", k, s)
		}
	}
}

func TestWitnessRendered(t *testing.T) {
	th := detect.Threat{
		Kind: detect.ActuatorRace, R1: comfortRule(), R2: closeRule(),
		Witness: solver.Model{
			"dev-tv.switch":           {Enum: "on"},
			"dev-tSensor.temperature": {Int: 31},
		},
	}
	s := DescribeThreat(th)
	if !strings.Contains(s, "Example situation") || !strings.Contains(s, "dev-tv.switch = on") {
		t.Errorf("witness missing: %s", s)
	}
}

func TestDescribeChain(t *testing.T) {
	c := detect.Chain{
		Rules: []*rule.Rule{comfortRule(), closeRule(), comfortRule()},
		Kinds: []detect.Kind{detect.CovertTriggering, detect.EnablingCondition},
	}
	s := DescribeChain(c)
	for _, frag := range []string{"—CT→", "—EC→", "ComfortTV/r1", "chain"} {
		if !strings.Contains(s, frag) {
			t.Errorf("chain rendering missing %q: %s", frag, s)
		}
	}
}

func TestInstallReport(t *testing.T) {
	threats := []detect.Threat{{Kind: detect.ActuatorRace, R1: comfortRule(), R2: closeRule()}}
	rep := InstallReport("ColdDefender", []*rule.Rule{closeRule()}, threats)
	for _, frag := range []string{"HomeGuard", "ColdDefender", "This app defines", "threat", "⚠"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep)
		}
	}
	clean := InstallReport("SafeApp", []*rule.Rule{comfortRule()}, nil)
	if !strings.Contains(clean, "No cross-app interference") {
		t.Errorf("clean report: %s", clean)
	}
}

// TestConditionRendersItsFormula: a condition renders as its formula
// does. appendCondition walks the predicates and binds the data
// constraints in place, so it must give the text of the materialized
// c.Formula() (rule.Conj, then rule.Substitute) for flattening, literal,
// binding-chain, double-binding and cyclic cases alike.
func TestConditionRendersItsFormula(t *testing.T) {
	v := func(name string) rule.Var { return rule.Var{Name: name, Kind: rule.VarLocal, Type: rule.TypeInt} }
	cmp := func(op rule.CmpOp, l, r rule.Term) rule.Cmp { return rule.Cmp{Op: op, L: l, R: r} }
	var chain []rule.DataConstraint
	for i := 0; i < 10; i++ {
		chain = append(chain, rule.DataConstraint{Var: fmt.Sprintf("v%d", i), Term: v(fmt.Sprintf("v%d", i+1))})
	}
	cases := []rule.Condition{
		{Predicates: []rule.Constraint{cmp(rule.OpGt, v("t"), v("threshold"))},
			Data: []rule.DataConstraint{{Var: "t", Term: v("tSensor.temperature")}}},
		{Predicates: []rule.Constraint{cmp(rule.OpEq, v("x"), rule.IntVal(3)), rule.Lit(true), nil,
			rule.And{Cs: []rule.Constraint{cmp(rule.OpLe, v("y"), rule.Sum{X: v("z"), K: -5}), rule.And{Cs: []rule.Constraint{
				cmp(rule.OpNe, v("a.b.c"), rule.StrVal("on"))}}}}},
			Data: []rule.DataConstraint{{Var: "x", Term: rule.IntVal(1)}, {Var: "x", Term: v("w")}, {Var: "y", Term: v("y")}}},
		{Predicates: []rule.Constraint{rule.Or{Cs: []rule.Constraint{cmp(rule.OpLt, v("a"), rule.BoolVal(true)),
			rule.Not{C: cmp(rule.OpGe, v("b"), rule.Sum{X: v("a"), K: 2})}}}},
			Data: []rule.DataConstraint{{Var: "a", Term: v("b")}, {Var: "b", Term: v("a")}}},
		{Predicates: []rule.Constraint{cmp(rule.OpEq, v("v0"), v("v3"))}, Data: chain},
		{Predicates: []rule.Constraint{cmp(rule.OpEq, v("x"), rule.IntVal(1)), rule.Lit(false)}},
		{Predicates: []rule.Constraint{rule.Lit(true), rule.And{}}},
		{Predicates: []rule.Constraint{rule.And{Cs: []rule.Constraint{rule.Lit(true), rule.Lit(false)}}}},
	}
	for i, c := range cases {
		got := string(appendCondition(nil, c))
		want := string(appendCondition(nil, rule.Condition{Predicates: []rule.Constraint{c.Formula()}}))
		if got != want {
			t.Errorf("case %d: condition renders %q, its formula %q", i, got, want)
		}
	}
}

// TestWitnessPicksFirstSix: the example situation shows the six
// assignments first in name order, skipping internal variables, as a
// sort of every assignment would.
func TestWitnessPicksFirstSix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		m := solver.Model{}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			name := fmt.Sprintf("dev-%c.attr%d", 'a'+rng.Intn(26), rng.Intn(5))
			switch rng.Intn(3) {
			case 0:
				m[name] = solver.Value{Int: rng.Int63n(200) - 100}
			case 1:
				m[name] = solver.Value{Enum: "on"}
			default:
				m[name] = solver.Value{Enum: "\x00internal"}
			}
		}
		var names []string
		for name, v := range m {
			if !strings.HasPrefix(v.Enum, "\x00") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		parts := make([]string, 0, 6)
		for _, name := range names[:min(6, len(names))] {
			parts = append(parts, name+" = "+m[name].String())
		}
		want := strings.Join(parts, ", ") + "."
		if got := string(appendWitness(nil, m)); got != want {
			t.Fatalf("witness of %v: got %q, want %q", m, got, want)
		}
	}
}

// TestUnknownKindRuleIDs: a threat of a kind the renderer does not know
// names no rules in its text, yet its rule IDs still come back, and the
// dialog's text stays exactly the rendered lines.
func TestUnknownKindRuleIDs(t *testing.T) {
	th := detect.Threat{Kind: "ZZ", R1: comfortRule(), R2: closeRule()}
	known := detect.Threat{Kind: detect.ActuatorRace, R1: closeRule(), R2: comfortRule()}
	ts := []detect.Threat{th, known}
	RenderThreats(ts, func(i int, text, id1, id2 string) {
		if text != DescribeThreat(ts[i]) || id1 != ts[i].R1.QualifiedID() || id2 != ts[i].R2.QualifiedID() {
			t.Errorf("threat %d: got %q, %q, %q", i, text, id1, id2)
		}
	})
	report, lines := InstallDialog("ColdDefender", []*rule.Rule{closeRule()}, ts, nil)
	if !strings.Contains(report, "  ⚠ [ZZ] ZZ: \n") || !strings.HasSuffix(report, "change its configuration.\n") {
		t.Errorf("report carries the appended IDs:\n%s", report)
	}
	want := []string{"ComfortTV/r1", "ColdDefender/r1", "ColdDefender/r1", "ComfortTV/r1"}
	if fmt.Sprint(lines.ThreatRules) != fmt.Sprint(want) {
		t.Errorf("ThreatRules = %q, want %q", lines.ThreatRules, want)
	}
}
