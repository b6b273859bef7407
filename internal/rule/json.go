package rule

import (
	"encoding/json"
	"fmt"
)

// The wire formats below use explicit type tags so rule files are stable,
// diff-friendly JSON — the paper stores extracted rules as JSON strings on
// the HomeGuard backend (≈6.2 KB per app).

type termJSON struct {
	T    string    `json:"t"` // var | int | str | bool | sum
	Name string    `json:"name,omitempty"`
	Kind VarKind   `json:"kind,omitempty"`
	Type ValueType `json:"type,omitempty"`
	Int  int64     `json:"int,omitempty"`
	Str  string    `json:"str,omitempty"`
	Bool bool      `json:"bool,omitempty"`
	K    int64     `json:"k,omitempty"`
	X    *termJSON `json:"x,omitempty"`
}

func termToJSON(t Term) *termJSON {
	switch v := t.(type) {
	case Var:
		return &termJSON{T: "var", Name: v.Name, Kind: v.Kind, Type: v.Type}
	case IntVal:
		return &termJSON{T: "int", Int: int64(v)}
	case StrVal:
		return &termJSON{T: "str", Str: string(v)}
	case BoolVal:
		return &termJSON{T: "bool", Bool: bool(v)}
	case Sum:
		return &termJSON{T: "sum", K: v.K, X: termToJSON(v.X)}
	case nil:
		return nil
	}
	panic(fmt.Sprintf("rule: unknown term type %T", t))
}

func termFromJSON(j *termJSON) (Term, error) {
	if j == nil {
		return nil, nil
	}
	switch j.T {
	case "var":
		return Var{Name: j.Name, Kind: j.Kind, Type: j.Type}, nil
	case "int":
		return IntVal(j.Int), nil
	case "str":
		return StrVal(j.Str), nil
	case "bool":
		return BoolVal(j.Bool), nil
	case "sum":
		x, err := termFromJSON(j.X)
		if err != nil {
			return nil, err
		}
		v, ok := x.(Var)
		if !ok {
			return nil, fmt.Errorf("rule: sum term base must be a var")
		}
		return Sum{X: v, K: j.K}, nil
	}
	return nil, fmt.Errorf("rule: unknown term tag %q", j.T)
}

type constraintJSON struct {
	T   string            `json:"t"` // cmp | and | or | not | lit
	Op  CmpOp             `json:"op,omitempty"`
	L   *termJSON         `json:"l,omitempty"`
	R   *termJSON         `json:"r,omitempty"`
	Cs  []*constraintJSON `json:"cs,omitempty"`
	C   *constraintJSON   `json:"c,omitempty"`
	Lit bool              `json:"lit,omitempty"`
}

func constraintToJSON(c Constraint) *constraintJSON {
	switch x := c.(type) {
	case nil:
		return nil
	case Cmp:
		return &constraintJSON{T: "cmp", Op: x.Op, L: termToJSON(x.L), R: termToJSON(x.R)}
	case And:
		out := &constraintJSON{T: "and"}
		for _, sub := range x.Cs {
			out.Cs = append(out.Cs, constraintToJSON(sub))
		}
		return out
	case Or:
		out := &constraintJSON{T: "or"}
		for _, sub := range x.Cs {
			out.Cs = append(out.Cs, constraintToJSON(sub))
		}
		return out
	case Not:
		return &constraintJSON{T: "not", C: constraintToJSON(x.C)}
	case Lit:
		return &constraintJSON{T: "lit", Lit: bool(x)}
	}
	panic(fmt.Sprintf("rule: unknown constraint type %T", c))
}

func constraintFromJSON(j *constraintJSON) (Constraint, error) {
	if j == nil {
		return nil, nil
	}
	switch j.T {
	case "cmp":
		l, err := termFromJSON(j.L)
		if err != nil {
			return nil, err
		}
		r, err := termFromJSON(j.R)
		if err != nil {
			return nil, err
		}
		return Cmp{Op: j.Op, L: l, R: r}, nil
	case "and":
		var cs []Constraint
		for _, sub := range j.Cs {
			c, err := constraintFromJSON(sub)
			if err != nil {
				return nil, err
			}
			cs = append(cs, c)
		}
		return And{Cs: cs}, nil
	case "or":
		var cs []Constraint
		for _, sub := range j.Cs {
			c, err := constraintFromJSON(sub)
			if err != nil {
				return nil, err
			}
			cs = append(cs, c)
		}
		return Or{Cs: cs}, nil
	case "not":
		c, err := constraintFromJSON(j.C)
		if err != nil {
			return nil, err
		}
		return Not{C: c}, nil
	case "lit":
		return Lit(j.Lit), nil
	}
	return nil, fmt.Errorf("rule: unknown constraint tag %q", j.T)
}

type dataConstraintJSON struct {
	Var  string    `json:"var"`
	Term *termJSON `json:"term"`
}

type triggerJSON struct {
	Subject    string          `json:"subject"`
	Attribute  string          `json:"attribute"`
	Capability string          `json:"capability,omitempty"`
	Constraint *constraintJSON `json:"constraint,omitempty"`
}

type conditionJSON struct {
	Data       []dataConstraintJSON `json:"data,omitempty"`
	Predicates []*constraintJSON    `json:"predicates,omitempty"`
}

type actionJSON struct {
	Subject    string            `json:"subject"`
	Capability string            `json:"capability,omitempty"`
	Command    string            `json:"command"`
	Params     []*termJSON       `json:"params,omitempty"`
	Data       []*constraintJSON `json:"data,omitempty"`
	When       int               `json:"when,omitempty"`
	Period     int               `json:"period,omitempty"`
}

type ruleJSON struct {
	App       string        `json:"app"`
	ID        string        `json:"id"`
	Trigger   triggerJSON   `json:"trigger"`
	Condition conditionJSON `json:"condition"`
	Action    actionJSON    `json:"action"`
}

// MarshalJSON implements json.Marshaler.
func (r *Rule) MarshalJSON() ([]byte, error) {
	out := ruleJSON{
		App: r.App,
		ID:  r.ID,
		Trigger: triggerJSON{
			Subject:    r.Trigger.Subject,
			Attribute:  r.Trigger.Attribute,
			Capability: r.Trigger.Capability,
			Constraint: constraintToJSON(r.Trigger.Constraint),
		},
		Action: actionJSON{
			Subject:    r.Action.Subject,
			Capability: r.Action.Capability,
			Command:    r.Action.Command,
			When:       r.Action.When,
			Period:     r.Action.Period,
		},
	}
	for _, d := range r.Condition.Data {
		out.Condition.Data = append(out.Condition.Data,
			dataConstraintJSON{Var: d.Var, Term: termToJSON(d.Term)})
	}
	for _, p := range r.Condition.Predicates {
		out.Condition.Predicates = append(out.Condition.Predicates, constraintToJSON(p))
	}
	for _, p := range r.Action.Params {
		out.Action.Params = append(out.Action.Params, termToJSON(p))
	}
	for _, d := range r.Action.Data {
		out.Action.Data = append(out.Action.Data, constraintToJSON(d))
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Rule) UnmarshalJSON(b []byte) error {
	var in ruleJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	tc, err := constraintFromJSON(in.Trigger.Constraint)
	if err != nil {
		return err
	}
	r.App = in.App
	r.ID = in.ID
	r.Trigger = Trigger{
		Subject:    in.Trigger.Subject,
		Attribute:  in.Trigger.Attribute,
		Capability: in.Trigger.Capability,
		Constraint: tc,
	}
	r.Condition = Condition{}
	for _, d := range in.Condition.Data {
		t, err := termFromJSON(d.Term)
		if err != nil {
			return err
		}
		r.Condition.Data = append(r.Condition.Data, DataConstraint{Var: d.Var, Term: t})
	}
	for _, p := range in.Condition.Predicates {
		c, err := constraintFromJSON(p)
		if err != nil {
			return err
		}
		r.Condition.Predicates = append(r.Condition.Predicates, c)
	}
	r.Action = Action{
		Subject:    in.Action.Subject,
		Capability: in.Action.Capability,
		Command:    in.Action.Command,
		When:       in.Action.When,
		Period:     in.Action.Period,
	}
	for _, p := range in.Action.Params {
		t, err := termFromJSON(p)
		if err != nil {
			return err
		}
		r.Action.Params = append(r.Action.Params, t)
	}
	for _, d := range in.Action.Data {
		c, err := constraintFromJSON(d)
		if err != nil {
			return err
		}
		r.Action.Data = append(r.Action.Data, c)
	}
	return nil
}

// MarshalTerm serializes one term in the tagged wire format (nil terms
// marshal to JSON null). The extraction-cache snapshot uses it for input
// default values, which are Terms behind an interface and therefore not
// round-trippable by plain encoding/json.
func MarshalTerm(t Term) ([]byte, error) {
	return json.Marshal(termToJSON(t))
}

// UnmarshalTerm parses a term produced by MarshalTerm (JSON null yields a
// nil term).
func UnmarshalTerm(b []byte) (Term, error) {
	var j *termJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, err
	}
	return termFromJSON(j)
}

// MarshalRuleSet serializes a rule set to indented JSON (the on-server
// "rule file" format).
func MarshalRuleSet(rs *RuleSet) ([]byte, error) {
	return json.MarshalIndent(struct {
		App   string  `json:"app"`
		Rules []*Rule `json:"rules"`
	}{App: rs.App, Rules: rs.Rules}, "", "  ")
}

// UnmarshalRuleSet parses a rule file produced by MarshalRuleSet.
func UnmarshalRuleSet(b []byte) (*RuleSet, error) {
	var in struct {
		App   string  `json:"app"`
		Rules []*Rule `json:"rules"`
	}
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, err
	}
	for i, r := range in.Rules {
		if r == nil {
			return nil, fmt.Errorf("rule: rule set %q: rule %d is null", in.App, i)
		}
	}
	return &RuleSet{App: in.App, Rules: in.Rules}, nil
}
