// Command homeguard is the HomeGuard CLI: extract rules from SmartApp
// sources, instrument apps for configuration collection, audit a directory
// of apps pairwise (one-shot or continuously with -watch), drive a
// daemon's incremental app store over RPC, and describe corpus apps.
//
// Usage:
//
//	homeguard extract <file.groovy|corpus:Name>     print extracted rules
//	homeguard extract -json <file|corpus:Name>      print the rule file JSON
//	homeguard instrument <file|corpus:Name>         print instrumented source
//	homeguard audit <dir-with-.groovy|corpus>       pairwise CAI detection
//	homeguard audit -watch [-interval 2s] <dir>     continuous incremental
//	                                                audit: re-checks only the
//	                                                apps that changed and
//	                                                prints each revision's
//	                                                added/resolved findings
//	homeguard store [-addr :8081] submit <src...>   submit/update store apps
//	                                                on a daemon (SubmitApps)
//	homeguard store [-addr :8081] remove <name...>  remove store apps
//	homeguard store [-addr :8081] findings [-since N]  read the findings feed
//	homeguard describe <file|corpus:Name>           human-readable rules
//	homeguard recipe "<ifttt recipe text>"          NL rule extraction
//	homeguard corpus                                list corpus apps
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"homeguard"
	"homeguard/internal/api"
	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/experiments"
	"homeguard/internal/frontend"
	"homeguard/internal/rpc"
	"homeguard/internal/rule"
	"homeguard/internal/symexec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "extract":
		err = cmdExtract(args)
	case "instrument":
		err = cmdInstrument(args)
	case "audit":
		err = cmdAudit(args)
	case "describe":
		err = cmdDescribe(args)
	case "recipe":
		err = cmdRecipe(args)
	case "store":
		err = cmdStore(args)
	case "corpus":
		err = cmdCorpus()
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "homeguard:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  homeguard extract [-json] <file.groovy|corpus:Name>
  homeguard instrument <file.groovy|corpus:Name>
  homeguard audit [-watch] [-interval 2s] <dir|corpus>
  homeguard store [-addr :8081] submit <file.groovy|corpus:Name>...
  homeguard store [-addr :8081] remove <name>...
  homeguard store [-addr :8081] findings [-since N]
  homeguard describe <file.groovy|corpus:Name>
  homeguard recipe "<ifttt recipe text>"
  homeguard corpus`)
}

// loadSource resolves "corpus:Name" or a file path.
func loadSource(arg string) (string, error) {
	if name, ok := strings.CutPrefix(arg, "corpus:"); ok {
		a, found := corpus.Get(name)
		if !found {
			return "", fmt.Errorf("unknown corpus app %q", name)
		}
		return a.Source, nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the rule-file JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("extract needs exactly one source")
	}
	src, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := homeguard.ExtractRules(src)
	if err != nil {
		return err
	}
	if *asJSON {
		b, err := rule.MarshalRuleSet(res.Rules)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Printf("app: %s (%d rules, %d paths explored)\n",
		res.App.Name, len(res.Rules.Rules), res.Paths)
	for _, r := range res.Rules.Rules {
		fmt.Println(" ", r)
	}
	for _, w := range res.Warnings {
		fmt.Println("  warning:", w)
	}
	return nil
}

func cmdInstrument(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("instrument needs exactly one source")
	}
	src, err := loadSource(args[0])
	if err != nil {
		return err
	}
	out, err := homeguard.InstrumentApp(src)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func cmdDescribe(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("describe needs exactly one source")
	}
	src, err := loadSource(args[0])
	if err != nil {
		return err
	}
	res, err := homeguard.ExtractRules(src)
	if err != nil {
		return err
	}
	fmt.Printf("%s — %s\n", res.App.Name, res.App.Description)
	for _, r := range res.Rules.Rules {
		fmt.Println("  •", homeguard.DescribeRule(r))
	}
	return nil
}

func cmdRecipe(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf(`recipe needs one quoted recipe string`)
	}
	r, err := homeguard.ParseRecipe("ifttt", args[0])
	if err != nil {
		return err
	}
	fmt.Println(homeguard.DescribeRule(r))
	fmt.Println("raw:", r)
	return nil
}

func cmdCorpus() error {
	for _, cat := range []corpus.Category{
		corpus.Demo, corpus.Benign, corpus.Notification,
		corpus.WebService, corpus.Malicious,
	} {
		apps := corpus.ByCategory(cat)
		fmt.Printf("%s (%d):\n", cat, len(apps))
		for _, a := range apps {
			extra := ""
			if a.Attack != "" {
				extra = " [" + a.Attack + "]"
			}
			fmt.Printf("  %s%s\n", a.Name, extra)
		}
	}
	return nil
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	watch := fs.Bool("watch", false, "watch the directory and re-audit incrementally on change")
	interval := fs.Duration("interval", 2*time.Second, "poll interval for -watch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) != 1 {
		return fmt.Errorf("audit needs a directory of .groovy files, or 'corpus'")
	}
	if *watch {
		if args[0] == "corpus" {
			return fmt.Errorf("audit -watch needs a directory, not 'corpus'")
		}
		return watchAudit(args[0], *interval)
	}
	type loaded struct {
		name string
		src  string
	}
	var apps []loaded
	if args[0] == "corpus" {
		for _, a := range corpus.StoreAudit() {
			apps = append(apps, loaded{a.Name, a.Source})
		}
	} else {
		entries, err := filepath.Glob(filepath.Join(args[0], "*.groovy"))
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			return fmt.Errorf("no .groovy files under %s", args[0])
		}
		for _, f := range entries {
			b, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			apps = append(apps, loaded{strings.TrimSuffix(filepath.Base(f), ".groovy"), string(b)})
		}
	}
	// The all-pairs sweep is one cold Apply on a fresh store auditor;
	// findings come back in the serial install order, so output is
	// deterministic.
	inputs := make([]audit.App, 0, len(apps))
	for _, a := range apps {
		res, err := symexec.Extract(a.src, a.name)
		if err != nil {
			fmt.Printf("skip %s: %v\n", a.name, err)
			continue
		}
		inputs = append(inputs, audit.App{Res: res, Config: experiments.StoreConfig(res)})
	}
	if len(inputs) == 0 {
		return fmt.Errorf("no app under %s could be extracted", args[0])
	}
	rev, err := audit.NewAuditor(audit.AuditorOptions{}).Apply(audit.Batch{Upserts: inputs})
	if err != nil {
		return err
	}
	for _, f := range rev.Added {
		fmt.Println("⚠", frontend.DescribeThreat(f.Threat))
	}
	st := rev.Stats
	fmt.Printf("\n%d apps, %d pairs checked, %d threats, %d solver calls (%d reused)\n",
		rev.Apps, st.PairsChecked, len(rev.Added), st.SolverCalls, st.SolverCacheHits)
	return nil
}

// watchAudit is the daemonless continuous mode: poll the directory (no
// inotify dependency — a stat sweep per tick is plenty for app-store
// sized directories), turn file adds/edits/deletes into auditor batches,
// and print each revision's findings delta. Unchanged files are never
// re-extracted and untouched pairs never re-solved.
func watchAudit(dir string, interval time.Duration) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	type fileState struct {
		mtime time.Time
		size  int64
	}
	seen := map[string]fileState{} // app name -> last stat
	aud := audit.NewAuditor(audit.AuditorOptions{})
	fmt.Printf("watching %s (every %v, ctrl-c to stop)\n", dir, interval)
	for {
		entries, err := filepath.Glob(filepath.Join(dir, "*.groovy"))
		if err != nil {
			return err
		}
		var batch audit.Batch
		current := map[string]bool{}
		for _, f := range entries {
			name := strings.TrimSuffix(filepath.Base(f), ".groovy")
			current[name] = true
			info, err := os.Stat(f)
			if err != nil {
				continue // raced with a delete; next tick removes it
			}
			st := fileState{info.ModTime(), info.Size()}
			if prev, ok := seen[name]; ok && prev == st {
				continue
			}
			b, err := os.ReadFile(f)
			if err != nil {
				fmt.Printf("skip %s: %v\n", name, err)
				continue
			}
			seen[name] = st
			batch.Upserts = append(batch.Upserts, audit.App{Name: name, Source: string(b)})
		}
		for name := range seen {
			if !current[name] {
				delete(seen, name)
				batch.Removes = append(batch.Removes, name)
			}
		}
		if len(batch.Upserts) > 0 || len(batch.Removes) > 0 {
			rev, err := aud.Apply(batch)
			if err != nil {
				return err
			}
			fmt.Printf("[rev %d] %d apps, %d pairs re-checked in %v\n",
				rev.Rev, rev.Apps, rev.Pairs, rev.Duration.Round(time.Millisecond))
			for name, err := range rev.Errors {
				fmt.Printf("  skip %s: %v\n", name, err)
			}
			for _, f := range rev.Added {
				fmt.Printf("  + %s×%s: %s\n", f.App1, f.App2, frontend.DescribeThreat(f.Threat))
			}
			for _, f := range rev.Resolved {
				fmt.Printf("  - %s×%s: %s\n", f.App1, f.App2, frontend.DescribeThreat(f.Threat))
			}
		}
		time.Sleep(interval)
	}
}

// cmdStore drives a daemon's incremental app store over the framed RPC
// edge: submit/update apps, remove them, and read the findings feed.
func cmdStore(args []string) error {
	fs := flag.NewFlagSet("store", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8081", "daemon RPC address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("store needs a subcommand: submit, remove or findings")
	}
	c, err := rpc.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	printDelta := func(added, resolved []api.Finding) {
		for _, f := range added {
			fmt.Printf("  + %s×%s: %s\n", f.App1, f.App2, f.Threat.Text)
		}
		for _, f := range resolved {
			fmt.Printf("  - %s×%s: %s\n", f.App1, f.App2, f.Threat.Text)
		}
	}

	switch sub, rest := args[0], args[1:]; sub {
	case "submit":
		if len(rest) == 0 {
			return fmt.Errorf("store submit needs at least one <file.groovy|corpus:Name>")
		}
		req := &api.SubmitAppsRequest{}
		for _, arg := range rest {
			if name, ok := strings.CutPrefix(arg, "corpus:"); ok {
				req.Upserts = append(req.Upserts, api.StoreApp{Corpus: name})
				continue
			}
			src, err := loadSource(arg)
			if err != nil {
				return err
			}
			req.Upserts = append(req.Upserts, api.StoreApp{
				Name:   strings.TrimSuffix(filepath.Base(arg), ".groovy"),
				Source: src,
			})
		}
		resp, err := c.SubmitApps(ctx, req)
		if err != nil {
			return err
		}
		fmt.Printf("rev %d: %d apps, %d pairs re-checked, +%d/-%d findings\n",
			resp.Rev, resp.Apps, resp.Pairs, len(resp.Added), len(resp.Resolved))
		for name, e := range resp.Errors {
			fmt.Printf("  skip %s: %s\n", name, e.Message)
		}
		printDelta(resp.Added, resp.Resolved)
		return nil
	case "remove":
		if len(rest) == 0 {
			return fmt.Errorf("store remove needs at least one app name")
		}
		resp, err := c.SubmitApps(ctx, &api.SubmitAppsRequest{Removes: rest})
		if err != nil {
			return err
		}
		fmt.Printf("rev %d: %d apps, +%d/-%d findings\n",
			resp.Rev, resp.Apps, len(resp.Added), len(resp.Resolved))
		for name, e := range resp.Errors {
			fmt.Printf("  skip %s: %s\n", name, e.Message)
		}
		printDelta(resp.Added, resp.Resolved)
		return nil
	case "findings":
		ffs := flag.NewFlagSet("store findings", flag.ExitOnError)
		since := ffs.Uint64("since", 0, "revision the feed was last read at")
		if err := ffs.Parse(rest); err != nil {
			return err
		}
		resp, err := c.Findings(ctx, &api.FindingsRequest{Since: *since})
		if err != nil {
			return err
		}
		if resp.Reset {
			fmt.Printf("rev %d (reset — revision %d aged out; full active set follows)\n", resp.Rev, resp.Since)
		} else {
			fmt.Printf("rev %d (since %d)\n", resp.Rev, resp.Since)
		}
		printDelta(resp.Added, resp.Resolved)
		return nil
	default:
		return fmt.Errorf("unknown store subcommand %q (want submit, remove or findings)", sub)
	}
}
