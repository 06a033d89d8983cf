package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

// compareMain prints, per workload and metric, the median and quartiles of
// two sets of runs (each an -out file) and a verdict against the bounds in
// BENCHMARK.json. It exits 1 when an end-to-end metric got worse by more
// than its bound, 2 on usage errors.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	old, err := readRecords(fs.Arg(0))
	if err == nil {
		var cur []record
		if cur, err = readRecords(fs.Arg(1)); err == nil {
			return compare(stdout, sp, old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side summarises one metric's runs on one side of a comparison.
type side struct {
	q1, med, q3 float64
	vals        []float64
}

func summarise(vals []float64) side {
	q1, q2, q3 := quartiles(vals)
	return side{q1, q2, q3, vals}
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// values collects one metric of one workload from correct runs.
func values(recs []record, workload, name string, trace bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace || !r.Result.Correct {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges new against old for a metric with the given bound:
// "unresolved" when either side's spread exceeds the bound (unless every
// new run beats every old run), "worse"/"better" when the medians differ
// by more than the bound, else "unchanged".
func verdict(m specMetric, o, n side) string {
	lower := m.Better == "lower"
	worse := (n.med - o.med) / math.Abs(o.med)
	if !lower {
		worse = -worse
	}
	if o.spread() > m.Bound || n.spread() > m.Bound {
		if allBetter(o.vals, n.vals, lower) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case -worse > m.Bound:
		return "better"
	}
	return "unchanged"
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, cur []float64, lower bool) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	for _, n := range cur {
		for _, o := range old {
			if (lower && n >= o) || (!lower && n <= o) {
				return false
			}
		}
	}
	return true
}

func compare(w io.Writer, sp spec, old, cur []record) int {
	workloads := map[string]bool{}
	for _, r := range append(append([]record{}, old...), cur...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	status := 0
	row := func(wl string, m specMetric, trace bool) {
		ov, nv := values(old, wl, m.Name, trace), values(cur, wl, m.Name, trace)
		if len(ov) == 0 || len(nv) == 0 {
			return
		}
		o, n := summarise(ov), summarise(nv)
		v := "no bound"
		if !trace {
			v = verdict(m, o, n)
			if v == "worse" {
				status = 1
			}
		}
		change := math.NaN()
		if o.med != 0 {
			change = 100 * (n.med - o.med) / math.Abs(o.med)
		}
		fmt.Fprintf(w, "%-10s %-28s %12.4g [%.4g %.4g] n=%-2d %12.4g [%.4g %.4g] n=%-2d %+7.1f%%  %s\n",
			wl, m.Name, o.med, o.q1, o.q3, len(ov), n.med, n.q1, n.q3, len(nv), change, v)
	}
	fmt.Fprintf(w, "%-10s %-28s %12s %-19s %12s %-19s %8s  %s\n", "workload", "metric", "old median", "[q1 q3]", "new median", "[q1 q3]", "change", "verdict")
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			row(wl, m, false)
		}
		for _, m := range sp.PerLayer {
			row(wl, m, true)
		}
	}
	return status
}
