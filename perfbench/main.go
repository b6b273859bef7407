// Command perfbench is homeguard's end-to-end benchmark. It runs one of
// three fixed-work workloads against homeguardd and homeguardgw
// processes built from the tree, checks the outputs, and prints the
// end-to-end metrics; with -trace 1 it also replays the same generated
// inputs in-process through each layer's Go API (the ladder) and prints
// the per-layer metrics instead. BENCHMARK.json at the repository root
// lists the metrics, the workloads and what each layer metric should
// move. run.sh builds the binaries and runs this command:
//
//	bash perfbench/run.sh --workload install-warm --seed 1 --seconds 10 --trace 0
//
// The lines before the last print every metric with its unit and sample
// count; the last line is the JSON result. The command exits nonzero
// when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory of the homeguardd and homeguardgw binaries
	work     string // directory for WAL files and the span trace
}

// setupReps is how many times a run boots and preloads its deployment;
// setup_s is the median. The traced run reports no setup_s and boots once.
func (c config) setupReps() int {
	if c.trace {
		return 1
	}
	return 3
}

// restartReps is how many kill -9 restarts a run times; recover_s is
// the median. A restart that replays a WAL takes a second or so; an
// in-memory node boots in milliseconds, so more samples cost nothing.
func (c config) restartReps(replays bool) int {
	switch {
	case c.trace:
		return 1
	case replays:
		return 3
	}
	return 25
}

// row is one reported metric with the number of samples behind it.
type row struct {
	name  string
	value float64
	unit  string
	n     int
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	failures  []string // output checks that did not hold
	e2e       []row
	layers    []row
}

// check records an output check; a failed one makes the run incorrect.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"install-warm":    func(c config) (*outcome, error) { return runInstall(c, false) },
	"install-durable": func(c config) (*outcome, error) { return runInstall(c, true) },
	"store-churn":     runStoreChurn,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "install-warm, install-durable or store-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.IntVar(&cfg.seconds, "seconds", 10,
		"nominal measuring time; it fixes the amount of work (not a deadline), so every run of a workload does the same work")
	trace := flag.Int("trace", 0, "1 adds the traced layer ladder and prints the per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the homeguardd and homeguardgw binaries")
	flag.StringVar(&cfg.work, "work", "", "directory for WAL files and the span trace")
	flag.Parse()

	run, ok := workloads[cfg.workload]
	if !ok {
		log.Fatalf("unknown -workload %q", cfg.workload)
	}
	if cfg.bin == "" || cfg.work == "" || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatal("need -bin, -work, -seconds >= 1 and -trace 0 or 1")
	}
	cfg.trace = *trace == 1
	cfg.work = filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		log.Fatal(err)
	}
	out, err := run(cfg)
	// The run's WAL directories are large and of no use afterwards; the
	// span trace is written beside them, not inside.
	if rmErr := os.RemoveAll(cfg.work); rmErr != nil {
		log.Printf("remove %s: %v", cfg.work, rmErr)
	}
	if err != nil {
		log.Fatal(err)
	}

	rows := out.e2e
	if cfg.trace {
		rows = out.layers
	}
	res := resultJSON{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v: %d ops attempted, %d failed\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, out.attempted, out.failed)
	for _, r := range rows {
		fmt.Printf("  %-34s %14.4f %-9s n=%d\n", r.name, r.value, r.unit, r.n)
		res.Metrics[r.name] = metricJSON{Value: r.value, Unit: r.unit}
	}
	for _, f := range out.failures {
		fmt.Printf("  CHECK FAILED: %s\n", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d output checks failed: %s\n", len(out.failures), strings.Join(out.failures, "; "))
		os.Exit(1)
	}
}
