package experiments

import (
	"fmt"
	"strings"

	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/symexec"
)

// Group is the Fig. 8 app grouping: apps controlling a generic
// capability.switch, apps controlling the location mode, and the rest.
type Group string

// Fig. 8 groups.
const (
	GroupSwitch Group = "Switch"
	GroupMode   Group = "Mode"
	GroupOthers Group = "Others"
)

// Groups lists the Fig. 8 groups in display order.
var Groups = []Group{GroupSwitch, GroupMode, GroupOthers}

// Fig8Result aggregates the store audit.
type Fig8Result struct {
	Apps         int
	Pairs        int
	ThreatCounts map[Group]map[detect.Kind]int
	TotalThreats int
	// AppsWithThreats counts distinct apps involved in at least one threat.
	AppsWithThreats int
	Stats           detect.Stats
}

// ruleGroup classifies one rule by what its action controls.
func ruleGroup(command, capability string) Group {
	if command == "setLocationMode" {
		return GroupMode
	}
	if capability == "switch" {
		return GroupSwitch
	}
	return GroupOthers
}

// Fig8 runs pairwise CAI detection over the 90-app store corpus using
// type-level device identity and NLP-classified switch types (Sec.
// VIII-B), returning the per-group, per-kind threat statistics. The
// pairwise sweep is one cold Apply of the whole corpus on the store
// auditor (internal/audit), whose pair checks scale with GOMAXPROCS;
// Fig8Workers selects a fixed worker count for serial-contrast
// benchmarking.
func Fig8() *Fig8Result { return Fig8Workers(0) }

// Fig8Workers is Fig8 with an explicit audit worker count (0 = all cores).
// A cold Apply reports the threats and counters of the serial install
// sequence at any worker count, so the figure's numbers don't depend on
// it.
func Fig8Workers(workers int) *Fig8Result {
	apps := corpus.StoreAudit()
	inputs := make([]audit.App, 0, len(apps))
	for _, a := range apps {
		res, err := symexec.Extract(a.Source, "")
		if err != nil {
			continue
		}
		inputs = append(inputs, audit.App{Res: res, Config: StoreConfig(res)})
	}
	rev, err := audit.NewAuditor(audit.AuditorOptions{Workers: workers}).Apply(audit.Batch{Upserts: inputs})
	if err != nil {
		panic(fmt.Sprintf("fig8: store audit: %v", err))
	}
	out := &Fig8Result{
		Apps:         rev.Apps,
		Pairs:        rev.Stats.PairsChecked,
		ThreatCounts: map[Group]map[detect.Kind]int{},
		Stats:        rev.Stats,
	}
	for _, g := range Groups {
		out.ThreatCounts[g] = map[detect.Kind]int{}
	}
	appsInvolved := map[string]bool{}
	for _, f := range rev.Added {
		t := &f.Threat
		out.TotalThreats++
		appsInvolved[t.R1.App] = true
		appsInvolved[t.R2.App] = true
		g1 := ruleGroup(t.R1.Action.Command, t.R1.Action.Capability)
		g2 := ruleGroup(t.R2.Action.Command, t.R2.Action.Capability)
		out.ThreatCounts[g1][t.Kind]++
		if g2 != g1 {
			out.ThreatCounts[g2][t.Kind]++
		}
	}
	out.AppsWithThreats = len(appsInvolved)
	return out
}

// FormatFig8 renders the Fig. 8 statistics as an ASCII table.
func FormatFig8(r *Fig8Result) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf(
		"Fig. 8 — Detection statistics on %d store apps (%d pairs, %d threat instances, %d apps involved)\n",
		r.Apps, r.Pairs, r.TotalThreats, r.AppsWithThreats))
	if r.Stats.PairsIndexed > 0 {
		sb.WriteString(fmt.Sprintf(
			"Candidate generation: %d app pairs from index postings, %d rule pairs never generated (of %d pruned)\n",
			r.Stats.PairsIndexed, r.Stats.PairsSkippedByIndex, r.Stats.PairsPruned))
	}
	kinds := detect.AllKinds
	sb.WriteString(fmt.Sprintf("%-8s", "Group"))
	for _, k := range kinds {
		sb.WriteString(fmt.Sprintf("%6s", k))
	}
	sb.WriteString("\n")
	for _, g := range Groups {
		sb.WriteString(fmt.Sprintf("%-8s", g))
		for _, k := range kinds {
			sb.WriteString(fmt.Sprintf("%6d", r.ThreatCounts[g][k]))
		}
		sb.WriteString("\n")
	}
	// Bar rendering per kind (total across groups), echoing the figure.
	sb.WriteString("\nThreat instances by kind:\n")
	totals := map[detect.Kind]int{}
	maxTotal := 1
	for _, g := range Groups {
		for _, k := range kinds {
			totals[k] += r.ThreatCounts[g][k]
			if totals[k] > maxTotal {
				maxTotal = totals[k]
			}
		}
	}
	for _, k := range kinds {
		bar := strings.Repeat("█", totals[k]*40/maxTotal)
		sb.WriteString(fmt.Sprintf("%4s %5d %s\n", k, totals[k], bar))
	}
	return sb.String()
}
