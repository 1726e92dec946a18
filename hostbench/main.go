// Command hostbench is the repository's host-time benchmark: it measures
// what the host pays to wire, serve and replay Astra sessions, checks every
// output against expected values, and — with -trace 1 — attributes the
// time layer by layer from spans it records around calls into each layer.
//
//	hostbench -workload zoo-fk -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; everything before it is a
// human-readable report. See README.md for the workloads, the metrics and
// the layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// config is what every workload receives: the seed its inputs derive
// from, its measurement budget, and whether to record spans.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	out     io.Writer
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's outcome: operations attempted and failed, a
// description of each failure, and the metrics printed at the end.
type report struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// check counts one attempted operation, failed when any problem is listed.
func (r *report) check(op string, problems ...string) {
	r.attempted++
	if len(problems) == 0 {
		return
	}
	r.failed++
	for _, p := range problems {
		r.failures = append(r.failures, op+": "+p)
	}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *report) error{
	"zoo-fk":      runZooFK,
	"explore-all": runExploreAll,
	"serve-mix":   runServeMix,
	"replay":      runReplay,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 25, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer ledger; 0 reports end-to-end metrics")
	outDir := fs.String("out-dir", "", "directory the span log is written to (traced runs; empty skips it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "hostbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, out: stdout}
	rep := newReport()
	if err := drive(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", *name, err)
		return 1
	}
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	for _, f := range rep.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(stdout, "fail_ratio %.4f (%d failed / %d attempted)\n", ratio, rep.failed, rep.attempted)
	selected, err := rep.selected(cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   selected,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
