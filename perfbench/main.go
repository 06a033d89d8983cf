// Command perfbench is the repository's benchmark: it starts a real coldd,
// drives it over localhost with two closed-loop clients on one of three
// named workloads, checks every response, and prints the end-to-end
// metrics. With -trace 1 it instead reports per-layer metrics: the server's
// own counters over the same window, plus an in-process replay of sampled
// workload inputs through each layer's entry points, timed from here.
//
// Run it from the repository root through run.sh, which builds coldd and
// this program into .bench_build/:
//
//	bash perfbench/run.sh --workload paper-n30 --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	coldd    string // path of the coldd binary
	workdir  string // scratch directory for caches, stores and spans
	out      string // append the run record to this JSON-lines file
	short    bool   // scaled-down generation settings (package test)
}

const (
	// setupsPerRun is how many set-ups a run makes; setup_s is their
	// median, so one slow process start does not move it.
	setupsPerRun = 5
	// referenceChecks is how many misses per run are regenerated
	// in-process and compared byte for byte.
	referenceChecks = 2
)

func parseOptions(args []string) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload: paper-n30, hot-hits or mixed-n64")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: fixes the request set")
	fs.Float64Var(&o.seconds, "seconds", 40, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.coldd, "coldd", ".bench_build/coldd", "coldd binary to benchmark")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/run", "scratch directory (emptied first)")
	fs.StringVar(&o.out, "out", "", "append the run record to this JSON-lines file (for compare)")
	fs.BoolVar(&o.short, "short", false, "scaled-down generation settings for a quick check")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	return o, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as appended to an -out file.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Result   result             `json:"result"`
	Detail   map[string]float64 `json:"detail,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

func runMain(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	w, ok := workloads(o.short)[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want paper-n30, hot-hits or mixed-n64)", o.workload)
	}
	if _, err := os.Stat(o.coldd); err != nil {
		return fmt.Errorf("coldd binary: %w", err)
	}
	if err := os.RemoveAll(o.workdir); err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	rec, report, err := run(o, w)
	if err != nil {
		return err
	}
	rec.Workload, rec.Seed, rec.Trace, rec.Seconds = o.workload, o.seed, o.trace, o.seconds
	fmt.Fprint(stdout, report)
	for _, p := range rec.Problems {
		fmt.Fprintln(stdout, "PROBLEM:", p)
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func appendRecord(path string, rec *record) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// formatMetrics renders metrics one per line in name order.
func formatMetrics(b *strings.Builder, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(b, "%s\n", title)
	for _, n := range names {
		fmt.Fprintf(b, "  %-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
