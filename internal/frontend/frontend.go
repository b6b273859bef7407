// Package frontend implements the HomeGuard frontend's interpreters
// (Sec. IV-C): the rule interpreter renders extracted rules in a
// human-readable form so users can check that an app behaves as claimed,
// and the threat interpreter explains discovered CAI threats so users can
// decide whether to keep, remove or re-configure the new app (Fig. 7b).
package frontend

import (
	"fmt"
	"strings"

	"homeguard/internal/detect"
	"homeguard/internal/rule"
	"homeguard/internal/solver"
)

// DescribeRule renders one rule as an English sentence.
func DescribeRule(r *rule.Rule) string {
	var sb strings.Builder
	sb.WriteString("When ")
	sb.WriteString(describeTrigger(r.Trigger))
	if !r.Condition.Always() {
		sb.WriteString(", if ")
		sb.WriteString(describeCondition(r.Condition))
	}
	sb.WriteString(", then ")
	sb.WriteString(describeAction(r.Action))
	sb.WriteString(".")
	return sb.String()
}

func describeTrigger(t rule.Trigger) string {
	switch t.Subject {
	case "time":
		return "the scheduled time arrives"
	case "app":
		return "the app button is tapped"
	}
	subj := t.Subject
	if t.Subject == "location" {
		subj = "the home"
	}
	if t.AnyChange() {
		return fmt.Sprintf("%s's %s changes", subj, t.Attribute)
	}
	return fmt.Sprintf("%s's %s becomes %s", subj, t.Attribute, describeConstraintValue(t.Constraint))
}

// describeConstraintValue extracts the compared value(s) from a trigger
// constraint for compact rendering.
func describeConstraintValue(c rule.Constraint) string {
	switch x := c.(type) {
	case rule.Cmp:
		op := ""
		switch x.Op {
		case rule.OpEq:
			op = ""
		case rule.OpNe:
			op = "not "
		case rule.OpGt:
			op = "more than "
		case rule.OpGe:
			op = "at least "
		case rule.OpLt:
			op = "less than "
		case rule.OpLe:
			op = "at most "
		}
		return op + termText(x.R)
	case rule.And:
		parts := make([]string, len(x.Cs))
		for i, sub := range x.Cs {
			parts[i] = describeConstraintValue(sub)
		}
		return strings.Join(parts, " and ")
	}
	return c.String()
}

func termText(t rule.Term) string {
	switch x := t.(type) {
	case rule.StrVal:
		return string(x)
	case rule.IntVal:
		return fmt.Sprintf("%d", int64(x))
	case rule.Var:
		return "the configured " + x.Name
	case rule.Sum:
		return x.String()
	case rule.BoolVal:
		return fmt.Sprintf("%t", bool(x))
	}
	return t.String()
}

func describeCondition(c rule.Condition) string {
	f := c.Formula()
	return constraintText(f)
}

func constraintText(c rule.Constraint) string {
	switch x := c.(type) {
	case rule.Cmp:
		var op string
		switch x.Op {
		case rule.OpEq:
			op = "is"
		case rule.OpNe:
			op = "is not"
		case rule.OpGt:
			op = "is above"
		case rule.OpGe:
			op = "is at least"
		case rule.OpLt:
			op = "is below"
		case rule.OpLe:
			op = "is at most"
		}
		return fmt.Sprintf("%s %s %s", varText(x.L), op, termText(x.R))
	case rule.And:
		parts := make([]string, len(x.Cs))
		for i, sub := range x.Cs {
			parts[i] = constraintText(sub)
		}
		return strings.Join(parts, " and ")
	case rule.Or:
		parts := make([]string, len(x.Cs))
		for i, sub := range x.Cs {
			parts[i] = constraintText(sub)
		}
		return "(" + strings.Join(parts, " or ") + ")"
	case rule.Not:
		return "not (" + constraintText(x.C) + ")"
	case rule.Lit:
		if bool(x) {
			return "always"
		}
		return "never"
	}
	return c.String()
}

func varText(t rule.Term) string {
	if v, ok := t.(rule.Var); ok {
		return strings.ReplaceAll(v.Name, ".", "'s ")
	}
	return termText(t)
}

func describeAction(a rule.Action) string {
	var verb string
	switch a.Command {
	case "setLocationMode":
		verb = "set the home mode"
		if len(a.Params) > 0 {
			verb += " to " + termText(a.Params[0])
		}
	case "sendSms", "sendSmsMessage", "sendPush", "sendNotification":
		verb = "send a notification"
	default:
		verb = fmt.Sprintf("issue %s's %s", a.Subject, a.Command)
		if len(a.Params) > 0 {
			parts := make([]string, len(a.Params))
			for i, p := range a.Params {
				parts[i] = termText(p)
			}
			verb += "(" + strings.Join(parts, ", ") + ")"
		}
	}
	if a.When > 0 {
		verb += fmt.Sprintf(" after %d seconds", a.When)
	} else if a.When < 0 {
		verb += " after a configured delay"
	}
	if a.Period > 0 {
		verb += fmt.Sprintf(", repeating every %d seconds", a.Period)
	}
	return verb
}

// DescribeThreat renders one discovered threat for the installation
// dialog.
func DescribeThreat(t detect.Threat) string {
	var sb strings.Builder
	sb.Grow(160)
	describeThreatInto(&sb, t)
	return sb.String()
}

// describeThreatInto is the builder-writing core of DescribeThreat: the
// install report renders every threat of every install, so the text is
// assembled with direct writes instead of one fmt.Sprintf per clause.
func describeThreatInto(sb *strings.Builder, t detect.Threat) {
	sb.WriteString("[")
	sb.WriteString(string(t.Kind))
	sb.WriteString("] ")
	sb.WriteString(kindTitle(t.Kind))
	sb.WriteString(": ")
	id1, id2 := t.R1.QualifiedID(), t.R2.QualifiedID()
	switch t.Kind {
	case detect.ActuatorRace:
		sb.WriteString("rules ")
		sb.WriteString(id1)
		sb.WriteString(" and ")
		sb.WriteString(id2)
		sb.WriteString(" can run in the same situation and issue contradictory commands (")
		sb.WriteString(t.R1.Action.Command)
		sb.WriteString(" vs ")
		sb.WriteString(t.R2.Action.Command)
		sb.WriteString(") to the same device.")
	case detect.GoalConflict:
		sb.WriteString("rules ")
		sb.WriteString(id1)
		sb.WriteString(" and ")
		sb.WriteString(id2)
		sb.WriteString(" work against each other on ")
		sb.WriteString(string(t.Property))
		sb.WriteString(" (")
		sb.WriteString(t.R1.Action.Subject)
		sb.WriteString("(")
		sb.WriteString(t.R1.Action.Command)
		sb.WriteString(") vs ")
		sb.WriteString(t.R2.Action.Subject)
		sb.WriteString("(")
		sb.WriteString(t.R2.Action.Command)
		sb.WriteString(")).")
	case detect.CovertTriggering:
		sb.WriteString("rule ")
		sb.WriteString(id1)
		sb.WriteString("'s action can covertly trigger rule ")
		sb.WriteString(id2)
		sb.WriteString(", forming the hidden rule: when ")
		sb.WriteString(describeTrigger(t.R1.Trigger))
		sb.WriteString(", eventually ")
		sb.WriteString(describeAction(t.R2.Action))
		sb.WriteString(".")
	case detect.SelfDisabling:
		sb.WriteString("rule ")
		sb.WriteString(id1)
		sb.WriteString(" triggers rule ")
		sb.WriteString(id2)
		sb.WriteString(", which immediately reverses ")
		sb.WriteString(id1)
		sb.WriteString("'s action.")
	case detect.LoopTriggering:
		sb.WriteString("rules ")
		sb.WriteString(id1)
		sb.WriteString(" and ")
		sb.WriteString(id2)
		sb.WriteString(" trigger each other in a loop with contradictory actions — devices may oscillate.")
	case detect.EnablingCondition:
		sb.WriteString("rule ")
		sb.WriteString(id1)
		sb.WriteString("'s action can enable rule ")
		sb.WriteString(id2)
		sb.WriteString("'s condition.")
	case detect.DisablingCond:
		sb.WriteString("rule ")
		sb.WriteString(id1)
		sb.WriteString("'s action disables rule ")
		sb.WriteString(id2)
		sb.WriteString("'s condition — ")
		sb.WriteString(t.R2.App)
		sb.WriteString(" may silently stop working.")
	}
	if len(t.Witness) > 0 {
		sb.WriteString(" Example situation: ")
		witnessInto(sb, t)
	}
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

// witnessInto writes the example-situation clause: up to six variable
// assignments sorted by variable name (variable names contain no spaces,
// so name order and rendered "name = value" order coincide). One scratch
// slice is the only allocation besides the builder's own growth.
func witnessInto(sb *strings.Builder, t detect.Threat) {
	type entry struct {
		name string
		v    solver.Value
	}
	entries := make([]entry, 0, len(t.Witness))
	for name, v := range t.Witness {
		if strings.HasPrefix(v.Enum, "\x00") {
			continue
		}
		entries = append(entries, entry{name, v})
	}
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].name < entries[j-1].name; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	if len(entries) > 6 {
		entries = entries[:6]
	}
	for i, e := range entries {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(e.name)
		sb.WriteString(" = ")
		// Keep in lockstep with solver.Value.String — this is the same
		// enum-name-else-integer rendering, written into the builder to
		// avoid materializing the intermediate string per variable.
		if e.v.Enum != "" {
			sb.WriteString(e.v.Enum)
		} else {
			fmt.Fprintf(sb, "%d", e.v.Int)
		}
	}
	sb.WriteString(".")
}

// DescribeChain renders a multi-hop interference chain (Sec. VI-D).
func DescribeChain(c detect.Chain) string {
	var sb strings.Builder
	sb.WriteString("interference chain: ")
	for i, r := range c.Rules {
		if i > 0 {
			kind := "?"
			if i-1 < len(c.Kinds) {
				kind = string(c.Kinds[i-1])
			}
			sb.WriteString(fmt.Sprintf(" —%s→ ", kind))
		}
		sb.WriteString(r.QualifiedID())
	}
	sb.WriteString(" — the first rule's action can ripple through ")
	sb.WriteString(fmt.Sprintf("%d accepted interference(s).", len(c.Rules)-1))
	return sb.String()
}

// InstallReport renders the full installation dialog: the new app's rules
// followed by every discovered threat.
func InstallReport(appName string, rules []*rule.Rule, threats []detect.Threat) string {
	report, _ := InstallDialog(appName, rules, threats, nil)
	return report
}

// Lines are the item texts of one rendered installation dialog: Rules[i]
// is DescribeRule(rules[i]), Threats[i] DescribeThreat(threats[i]) and
// Chains[i] DescribeChain(chains[i]), each a substring of the dialog, so
// a caller that shows both renders every text once.
type Lines struct {
	Rules, Threats, Chains []string
}

// InstallDialog renders the installation dialog including chained-threat
// lines — the complete text both the library (homeguard.Home) and the
// fleet service show at install time — and the texts of its lines.
func InstallDialog(appName string, rules []*rule.Rule, threats []detect.Threat, chains []detect.Chain) (string, Lines) {
	var sb strings.Builder
	sb.Grow(256)
	// spans holds each line text's start and end offset in the dialog.
	spans := make([]int, 0, 2*(len(rules)+len(threats)+len(chains)))
	sb.WriteString("HomeGuard — installing ")
	sb.WriteString(appName)
	sb.WriteString("\n")
	sb.WriteString("========================================\n")
	sb.WriteString("This app defines:\n")
	for _, r := range rules {
		sb.WriteString("  • ")
		spans = append(spans, sb.Len())
		sb.WriteString(DescribeRule(r))
		spans = append(spans, sb.Len())
		sb.WriteString("\n")
	}
	if len(threats) == 0 {
		sb.WriteString("No cross-app interference detected.\n")
	} else {
		fmt.Fprintf(&sb, "%d potential cross-app interference threat(s):\n", len(threats))
		for _, t := range threats {
			sb.WriteString("  ⚠ ")
			spans = append(spans, sb.Len())
			describeThreatInto(&sb, t)
			spans = append(spans, sb.Len())
			sb.WriteString("\n")
		}
		sb.WriteString("Keep the app, remove it, or change its configuration.\n")
	}
	for _, c := range chains {
		sb.WriteString("  ⛓ ")
		spans = append(spans, sb.Len())
		sb.WriteString(DescribeChain(c))
		spans = append(spans, sb.Len())
		sb.WriteString("\n")
	}
	text := sb.String()
	texts := make([]string, len(spans)/2)
	for i := range texts {
		texts[i] = text[spans[2*i]:spans[2*i+1]]
	}
	nr, nt := len(rules), len(rules)+len(threats)
	return text, Lines{Rules: texts[:nr:nr], Threats: texts[nr:nt:nt], Chains: texts[nt:]}
}
