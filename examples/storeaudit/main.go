// Store audit (Fig. 8): run pairwise CAI detection over the 90-app store
// corpus with type-level device identity and NLP-classified switch types,
// then print the per-group statistics and a sample of findings. The
// pairwise sweep is one cold Apply of the corpus on the store auditor
// (internal/audit), whose pair checks use every core.
package main

import (
	"fmt"
	"log"
	"sort"

	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/experiments"
	"homeguard/internal/frontend"
	"homeguard/internal/symexec"
)

func main() {
	fmt.Println("Auditing the store corpus pairwise — this mirrors Sec. VIII-B:")
	fmt.Println("two rules share a device when their devices share a type, and")
	fmt.Println("capability.switch devices are typed from app descriptions.")
	fmt.Println()

	res := experiments.Fig8()
	fmt.Print(experiments.FormatFig8(res))

	// Show a few concrete findings, echoing the paper's six case studies.
	// One cold Apply on a fresh store auditor yields the same threats, in
	// the same order, as the serial per-app install loop this example used
	// to run.
	fmt.Println("\nSample findings:")
	var inputs []audit.App
	for _, a := range corpus.StoreAudit() {
		r, err := symexec.Extract(a.Source, "")
		if err != nil {
			continue
		}
		inputs = append(inputs, audit.App{Res: r, Config: experiments.StoreConfig(r)})
	}
	rev, err := audit.NewAuditor(audit.AuditorOptions{}).Apply(audit.Batch{Upserts: inputs})
	if err != nil {
		log.Fatal(err)
	}
	var sample []string
	for _, f := range rev.Added {
		sample = append(sample, "  "+frontend.DescribeThreat(f.Threat))
	}
	sort.Strings(sample)
	seenPairs := map[string]bool{}
	shown := 0
	for _, s := range sample {
		key := s[:min(60, len(s))]
		if seenPairs[key] {
			continue
		}
		seenPairs[key] = true
		fmt.Println(s)
		shown++
		if shown >= 12 {
			break
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
