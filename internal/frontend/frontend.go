// Package frontend implements the HomeGuard frontend's interpreters
// (Sec. IV-C): the rule interpreter renders extracted rules in a
// human-readable form so users can check that an app behaves as claimed,
// and the threat interpreter explains discovered CAI threats so users can
// decide whether to keep, remove or re-configure the new app (Fig. 7b).
//
// Every text is written by an appender into a byte buffer. A dialog or a
// threat read renders all of its texts into one pooled scratch buffer
// and converts that to one string; each item text is a substring of it.
package frontend

import (
	"strconv"
	"strings"
	"sync"

	"homeguard/internal/detect"
	"homeguard/internal/rule"
	"homeguard/internal/solver"
)

// scratch is a render buffer and the item spans (start, end offset
// pairs) recorded into it.
type scratch struct {
	buf   []byte
	spans []int
}

// scratchPool recycles render buffers. A scratch that grew past
// maxPooledScratch bytes is dropped, not kept.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

const maxPooledScratch = 1 << 20

func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	s.buf, s.spans = s.buf[:0], s.spans[:0]
	return s
}

func putScratch(s *scratch) {
	if cap(s.buf) <= maxPooledScratch && 8*cap(s.spans) <= maxPooledScratch {
		scratchPool.Put(s)
	}
}

// span records buf[start:len(buf)] as item i.
func (s *scratch) span(i, start int) {
	s.spans[2*i], s.spans[2*i+1] = start, len(s.buf)
}

// setItems sizes spans for n items.
func (s *scratch) setItems(n int) {
	s.spans = append(s.spans[:0], make([]int, 2*n)...)
}

// item is item i's text in text, the string of s.buf.
func (s *scratch) item(text string, i int) string {
	return text[s.spans[2*i]:s.spans[2*i+1]]
}

// DescribeRule renders one rule as an English sentence.
func DescribeRule(r *rule.Rule) string {
	s := getScratch()
	defer putScratch(s)
	s.buf = appendRule(s.buf, r)
	return string(s.buf)
}

func appendRule(dst []byte, r *rule.Rule) []byte {
	dst = append(dst, "When "...)
	dst = appendTrigger(dst, r.Trigger)
	if !r.Condition.Always() {
		dst = append(dst, ", if "...)
		dst = appendCondition(dst, r.Condition)
	}
	dst = append(dst, ", then "...)
	dst = appendAction(dst, r.Action)
	return append(dst, '.')
}

func appendTrigger(dst []byte, t rule.Trigger) []byte {
	switch t.Subject {
	case "time":
		return append(dst, "the scheduled time arrives"...)
	case "app":
		return append(dst, "the app button is tapped"...)
	case "location":
		dst = append(dst, "the home"...)
	default:
		dst = append(dst, t.Subject...)
	}
	dst = cat(dst, "'s ", t.Attribute)
	if t.AnyChange() {
		return append(dst, " changes"...)
	}
	dst = append(dst, " becomes "...)
	return appendConstraintValue(dst, t.Constraint)
}

// appendConstraintValue appends the compared value(s) of a trigger
// constraint for compact rendering.
func appendConstraintValue(dst []byte, c rule.Constraint) []byte {
	switch x := c.(type) {
	case rule.Cmp:
		switch x.Op {
		case rule.OpNe:
			dst = append(dst, "not "...)
		case rule.OpGt:
			dst = append(dst, "more than "...)
		case rule.OpGe:
			dst = append(dst, "at least "...)
		case rule.OpLt:
			dst = append(dst, "less than "...)
		case rule.OpLe:
			dst = append(dst, "at most "...)
		}
		return appendTerm(dst, x.R)
	case rule.And:
		for i, sub := range x.Cs {
			if i > 0 {
				dst = append(dst, " and "...)
			}
			dst = appendConstraintValue(dst, sub)
		}
		return dst
	}
	return append(dst, c.String()...)
}

func appendTerm(dst []byte, t rule.Term) []byte {
	switch x := t.(type) {
	case rule.StrVal:
		return append(dst, x...)
	case rule.IntVal:
		return strconv.AppendInt(dst, int64(x), 10)
	case rule.Var:
		dst = append(dst, "the configured "...)
		return append(dst, x.Name...)
	case rule.Sum:
		// rule.Sum.String's "X + K" / "X - -K".
		dst = append(dst, x.X.Name...)
		if x.K < 0 {
			dst = append(dst, " - "...)
			return strconv.AppendInt(dst, -x.K, 10)
		}
		dst = append(dst, " + "...)
		return strconv.AppendInt(dst, x.K, 10)
	case rule.BoolVal:
		return strconv.AppendBool(dst, bool(x))
	}
	return append(dst, t.String()...)
}

// appendCondition appends the condition's formula, c.Formula(), walked
// in place: the conjunction rule.Conj would build from the predicates,
// with every variable the data constraints bind replaced the way
// rule.Substitute replaces it (resolveTerm).
func appendCondition(dst []byte, c rule.Condition) []byte {
	n := 0
	for _, p := range c.Predicates {
		switch x := p.(type) {
		case nil:
		case rule.Lit:
			if !bool(x) {
				return append(dst, "never"...)
			}
		case rule.And:
			n += len(x.Cs)
		default:
			n++
		}
	}
	if n == 0 {
		return append(dst, "always"...)
	}
	k := 0
	for _, p := range c.Predicates {
		switch x := p.(type) {
		case nil, rule.Lit:
		case rule.And:
			for _, sub := range x.Cs {
				dst = appendConjunct(dst, k, sub, c.Data)
				k++
			}
		default:
			dst = appendConjunct(dst, k, p, c.Data)
			k++
		}
	}
	return dst
}

// appendConjunct appends conjunct k of a condition, after " and "
// unless it is the first.
func appendConjunct(dst []byte, k int, c rule.Constraint, data []rule.DataConstraint) []byte {
	if k > 0 {
		dst = append(dst, " and "...)
	}
	return appendConstraint(dst, c, data)
}

// resolveTerm is t after rule.Substitute's binding of data: a bound
// variable is replaced by its term, up to Substitute's eight rounds, and
// a name bound twice takes its last binding.
func resolveTerm(t rule.Term, data []rule.DataConstraint) rule.Term {
	for round := 0; round < 8; round++ {
		v, ok := t.(rule.Var)
		if !ok {
			return t
		}
		bound := false
		for i := len(data) - 1; i >= 0; i-- {
			if data[i].Var == v.Name {
				t, bound = data[i].Term, true
				break
			}
		}
		if !bound {
			return t
		}
	}
	return t
}

func appendConstraint(dst []byte, c rule.Constraint, data []rule.DataConstraint) []byte {
	switch x := c.(type) {
	case rule.Cmp:
		dst = appendVarText(dst, resolveTerm(x.L, data))
		switch x.Op {
		case rule.OpEq:
			dst = append(dst, " is "...)
		case rule.OpNe:
			dst = append(dst, " is not "...)
		case rule.OpGt:
			dst = append(dst, " is above "...)
		case rule.OpGe:
			dst = append(dst, " is at least "...)
		case rule.OpLt:
			dst = append(dst, " is below "...)
		case rule.OpLe:
			dst = append(dst, " is at most "...)
		default:
			dst = append(dst, "  "...)
		}
		return appendTerm(dst, resolveTerm(x.R, data))
	case rule.And:
		for i, sub := range x.Cs {
			if i > 0 {
				dst = append(dst, " and "...)
			}
			dst = appendConstraint(dst, sub, data)
		}
		return dst
	case rule.Or:
		dst = append(dst, '(')
		for i, sub := range x.Cs {
			if i > 0 {
				dst = append(dst, " or "...)
			}
			dst = appendConstraint(dst, sub, data)
		}
		return append(dst, ')')
	case rule.Not:
		dst = append(dst, "not ("...)
		dst = appendConstraint(dst, x.C, data)
		return append(dst, ')')
	case rule.Lit:
		if bool(x) {
			return append(dst, "always"...)
		}
		return append(dst, "never"...)
	}
	return append(dst, c.String()...)
}

// appendVarText appends a variable's name with each "." read as "'s "
// (tSensor.temperature → tSensor's temperature), any other term as
// appendTerm does.
func appendVarText(dst []byte, t rule.Term) []byte {
	v, ok := t.(rule.Var)
	if !ok {
		return appendTerm(dst, t)
	}
	name := v.Name
	for {
		i := strings.IndexByte(name, '.')
		if i < 0 {
			return append(dst, name...)
		}
		dst = cat(dst, name[:i], "'s ")
		name = name[i+1:]
	}
}

func appendAction(dst []byte, a rule.Action) []byte {
	switch a.Command {
	case "setLocationMode":
		dst = append(dst, "set the home mode"...)
		if len(a.Params) > 0 {
			dst = append(dst, " to "...)
			dst = appendTerm(dst, a.Params[0])
		}
	case "sendSms", "sendSmsMessage", "sendPush", "sendNotification":
		dst = append(dst, "send a notification"...)
	default:
		dst = cat(dst, "issue ", a.Subject, "'s ", a.Command)
		if len(a.Params) > 0 {
			dst = append(dst, '(')
			for i, p := range a.Params {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = appendTerm(dst, p)
			}
			dst = append(dst, ')')
		}
	}
	if a.When > 0 {
		dst = append(dst, " after "...)
		dst = strconv.AppendInt(dst, int64(a.When), 10)
		dst = append(dst, " seconds"...)
	} else if a.When < 0 {
		dst = append(dst, " after a configured delay"...)
	}
	if a.Period > 0 {
		dst = append(dst, ", repeating every "...)
		dst = strconv.AppendInt(dst, int64(a.Period), 10)
		dst = append(dst, " seconds"...)
	}
	return dst
}

// DescribeThreat renders one discovered threat for the installation
// dialog.
func DescribeThreat(t detect.Threat) string {
	s := getScratch()
	defer putScratch(s)
	s.buf, _, _ = appendThreat(s.buf, t)
	return string(s.buf)
}

// RenderThreats renders every threat of ts into one string and calls
// each(i, text, id1, id2) in order: text is DescribeThreat(ts[i]), and
// id1 and id2 are ts[i].R1's and R2's qualified IDs. All three are
// substrings of the one string, so a read of n threats allocates that
// string only.
func RenderThreats(ts []detect.Threat, each func(i int, text, id1, id2 string)) {
	s := getScratch()
	defer putScratch(s)
	n := len(ts)
	// Items are the n texts, then two rule IDs per threat.
	s.setItems(3 * n)
	for i, t := range ts {
		start := len(s.buf)
		var at1, at2 int
		s.buf, at1, at2 = appendThreat(s.buf, t)
		s.span(i, start)
		s.threatIDs(n, i, t, at1, at2)
	}
	s.appendMissingIDs(n, ts)
	text := string(s.buf)
	for i := range ts {
		each(i, s.item(text, i), s.item(text, n+2*i), s.item(text, n+2*i+1))
	}
}

// threatIDs records the spans of threat i's rule IDs, which its text
// names at at1 and at2, as items base+2i and base+2i+1.
func (s *scratch) threatIDs(base, i int, t detect.Threat, at1, at2 int) {
	j := 2 * (base + 2*i)
	s.spans[j], s.spans[j+1] = at1, at1+idLen(t.R1)
	s.spans[j+2], s.spans[j+3] = at2, at2+idLen(t.R2)
}

// appendMissingIDs appends the rule IDs of every threat whose text names
// none (a kind appendThreat does not know) after all that was rendered,
// and records their spans, so every ID is a substring of the buffer.
func (s *scratch) appendMissingIDs(base int, ts []detect.Threat) {
	for i, t := range ts {
		if s.spans[2*(base+2*i)] >= 0 {
			continue
		}
		start := len(s.buf)
		s.buf = appendQualifiedID(s.buf, t.R1)
		s.span(base+2*i, start)
		start = len(s.buf)
		s.buf = appendQualifiedID(s.buf, t.R2)
		s.span(base+2*i+1, start)
	}
}

// cat appends each of ss to dst.
func cat(dst []byte, ss ...string) []byte {
	for _, s := range ss {
		dst = append(dst, s...)
	}
	return dst
}

// appendQualifiedID appends r.QualifiedID().
func appendQualifiedID(dst []byte, r *rule.Rule) []byte {
	return cat(dst, r.App, "/", r.ID)
}

func idLen(r *rule.Rule) int { return len(r.App) + 1 + len(r.ID) }

// appendThreat appends t's explanation. Every kind's text names both
// rules: at1 and at2 are the offsets in dst where R1's and R2's
// qualified IDs start (-1 for a kind it does not know, whose text names
// neither).
func appendThreat(dst []byte, t detect.Threat) (out []byte, at1, at2 int) {
	dst = cat(dst, "[", string(t.Kind), "] ", kindTitle(t.Kind), ": ")
	at1, at2 = -1, -1
	switch t.Kind {
	case detect.ActuatorRace:
		dst, at1, at2 = appendRulePair(dst, t, "rules ", " and ")
		dst = cat(dst, " can run in the same situation and issue contradictory commands (",
			t.R1.Action.Command, " vs ", t.R2.Action.Command, ") to the same device.")
	case detect.GoalConflict:
		dst, at1, at2 = appendRulePair(dst, t, "rules ", " and ")
		dst = cat(dst, " work against each other on ", string(t.Property), " (",
			t.R1.Action.Subject, "(", t.R1.Action.Command, ") vs ",
			t.R2.Action.Subject, "(", t.R2.Action.Command, ")).")
	case detect.CovertTriggering:
		dst, at1, at2 = appendRulePair(dst, t, "rule ", "'s action can covertly trigger rule ")
		dst = append(dst, ", forming the hidden rule: when "...)
		dst = appendTrigger(dst, t.R1.Trigger)
		dst = append(dst, ", eventually "...)
		dst = appendAction(dst, t.R2.Action)
		dst = append(dst, '.')
	case detect.SelfDisabling:
		dst, at1, at2 = appendRulePair(dst, t, "rule ", " triggers rule ")
		dst = cat(dst, ", which immediately reverses ", t.R1.App, "/", t.R1.ID, "'s action.")
	case detect.LoopTriggering:
		dst, at1, at2 = appendRulePair(dst, t, "rules ", " and ")
		dst = append(dst, " trigger each other in a loop with contradictory actions — devices may oscillate."...)
	case detect.EnablingCondition:
		dst, at1, at2 = appendRulePair(dst, t, "rule ", "'s action can enable rule ")
		dst = append(dst, "'s condition."...)
	case detect.DisablingCond:
		dst, at1, at2 = appendRulePair(dst, t, "rule ", "'s action disables rule ")
		dst = cat(dst, "'s condition — ", t.R2.App, " may silently stop working.")
	}
	if len(t.Witness) > 0 {
		dst = append(dst, " Example situation: "...)
		dst = appendWitness(dst, t.Witness)
	}
	return dst, at1, at2
}

// appendRulePair appends lead, R1's ID, mid and R2's ID, and returns the
// offsets at which the two IDs start.
func appendRulePair(dst []byte, t detect.Threat, lead, mid string) (out []byte, at1, at2 int) {
	dst = append(dst, lead...)
	at1 = len(dst)
	dst = appendQualifiedID(dst, t.R1)
	dst = append(dst, mid...)
	at2 = len(dst)
	return appendQualifiedID(dst, t.R2), at1, at2
}

func kindTitle(k detect.Kind) string {
	switch k {
	case detect.ActuatorRace:
		return "Actuator Race"
	case detect.GoalConflict:
		return "Goal Conflict"
	case detect.CovertTriggering:
		return "Covert Triggering"
	case detect.SelfDisabling:
		return "Self Disabling"
	case detect.LoopTriggering:
		return "Loop Triggering"
	case detect.EnablingCondition:
		return "Enabling-Condition Interference"
	case detect.DisablingCond:
		return "Disabling-Condition Interference"
	}
	return string(k)
}

// maxWitness is how many variable assignments the example situation
// shows.
const maxWitness = 6

// appendWitness appends the example-situation clause: the maxWitness
// assignments first in variable-name order (variable names contain no
// spaces, so name order and rendered "name = value" order coincide),
// skipping the solver's internal variables. The assignments are picked
// into a fixed array by insertion, so the clause allocates nothing.
func appendWitness(dst []byte, w solver.Model) []byte {
	type entry struct {
		name string
		v    solver.Value
	}
	var top [maxWitness]entry
	n := 0
	for name, v := range w {
		if strings.HasPrefix(v.Enum, "\x00") || (n == maxWitness && name >= top[n-1].name) {
			continue
		}
		j := n
		if n < maxWitness {
			n++
		} else {
			j--
		}
		for ; j > 0 && name < top[j-1].name; j-- {
			top[j] = top[j-1]
		}
		top[j] = entry{name, v}
	}
	for i, e := range top[:n] {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = cat(dst, e.name, " = ")
		// solver.Value.String's rendering: the enum name, else the integer.
		if e.v.Enum != "" {
			dst = append(dst, e.v.Enum...)
		} else {
			dst = strconv.AppendInt(dst, e.v.Int, 10)
		}
	}
	return append(dst, '.')
}

// DescribeChain renders a multi-hop interference chain (Sec. VI-D).
func DescribeChain(c detect.Chain) string {
	s := getScratch()
	defer putScratch(s)
	s.buf = appendChain(s.buf, c)
	return string(s.buf)
}

func appendChain(dst []byte, c detect.Chain) []byte {
	dst = append(dst, "interference chain: "...)
	for i, r := range c.Rules {
		if i > 0 {
			dst = append(dst, " —"...)
			if i-1 < len(c.Kinds) {
				dst = append(dst, c.Kinds[i-1]...)
			} else {
				dst = append(dst, '?')
			}
			dst = append(dst, "→ "...)
		}
		dst = appendQualifiedID(dst, r)
	}
	dst = append(dst, " — the first rule's action can ripple through "...)
	dst = strconv.AppendInt(dst, int64(len(c.Rules)-1), 10)
	return append(dst, " accepted interference(s)."...)
}

// InstallReport renders the full installation dialog: the new app's rules
// followed by every discovered threat.
func InstallReport(appName string, rules []*rule.Rule, threats []detect.Threat) string {
	report, _ := InstallDialog(appName, rules, threats, nil)
	return report
}

// Lines are the item texts of one rendered installation dialog: Rules[i]
// is DescribeRule(rules[i]), Threats[i] DescribeThreat(threats[i]) and
// Chains[i] DescribeChain(chains[i]); ThreatRules[2i] and
// ThreatRules[2i+1] are threats[i].R1's and R2's qualified IDs. Each is
// a substring of the dialog, so a caller that shows both renders every
// text once.
type Lines struct {
	Rules, Threats, Chains, ThreatRules []string
}

// InstallDialog renders the installation dialog including chained-threat
// lines — the complete text both the library (homeguard.Home) and the
// fleet service show at install time — and the texts of its lines. It
// allocates the dialog string and one slice that holds every line text.
func InstallDialog(appName string, rules []*rule.Rule, threats []detect.Threat, chains []detect.Chain) (string, Lines) {
	s := getScratch()
	defer putScratch(s)
	nr, nt, nc := len(rules), len(threats), len(chains)
	// Items are the rules, the threats, the chains, then two rule IDs
	// per threat, in the order Lines slices them.
	ids := nr + nt + nc
	s.setItems(ids + 2*nt)
	s.buf = cat(s.buf, "HomeGuard — installing ", appName, "\n========================================\nThis app defines:\n")
	for i, r := range rules {
		s.buf = append(s.buf, "  • "...)
		start := len(s.buf)
		s.buf = appendRule(s.buf, r)
		s.span(i, start)
		s.buf = append(s.buf, '\n')
	}
	if nt == 0 {
		s.buf = append(s.buf, "No cross-app interference detected.\n"...)
	} else {
		s.buf = strconv.AppendInt(s.buf, int64(nt), 10)
		s.buf = append(s.buf, " potential cross-app interference threat(s):\n"...)
		for i, t := range threats {
			s.buf = append(s.buf, "  ⚠ "...)
			start := len(s.buf)
			var at1, at2 int
			s.buf, at1, at2 = appendThreat(s.buf, t)
			s.span(nr+i, start)
			s.threatIDs(ids, i, t, at1, at2)
			s.buf = append(s.buf, '\n')
		}
		s.buf = append(s.buf, "Keep the app, remove it, or change its configuration.\n"...)
	}
	for i, c := range chains {
		s.buf = append(s.buf, "  ⛓ "...)
		start := len(s.buf)
		s.buf = appendChain(s.buf, c)
		s.span(nr+nt+i, start)
		s.buf = append(s.buf, '\n')
	}
	end := len(s.buf)
	s.appendMissingIDs(ids, threats)
	text := string(s.buf)
	texts := make([]string, len(s.spans)/2)
	for i := range texts {
		texts[i] = s.item(text, i)
	}
	return text[:end], Lines{
		Rules:       texts[:nr:nr],
		Threats:     texts[nr : nr+nt : nr+nt],
		Chains:      texts[nr+nt : ids : ids],
		ThreatRules: texts[ids:],
	}
}
