package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastFlags keeps test invocations sub-second.
var fastFlags = []string{"-trials", "2", "-n", "8", "-pop", "12", "-gens", "6", "-bootstrap", "50"}

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "table1"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== Table 1:") || !strings.Contains(s, "-- table1 done") {
		t.Errorf("output malformed:\n%s", s)
	}
}

func TestRunSharedSweepOnce(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "fig5", "fig6", "fig7"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 5:", "Figure 6:", "Figure 7:"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output", want)
		}
	}
	// Figures 6 and 7 reuse the sweep, so they must complete much faster
	// than figure 5 — we can't assert timing robustly, but we can check
	// all three printed.
}

func TestRunFig2AndBrute(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "fig2", "brute", "fig8a"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 2:", "§5 validation", "Figure 8a:"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunBreedingThroughput(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "breeding"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "GA breeding throughput") || !strings.Contains(s, "-- breeding done") {
		t.Errorf("output malformed:\n%s", s)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("no experiment should error")
	}
	if err := run([]string{"fig99"}, &out); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"-trials", "x"}, &out); err == nil {
		t.Error("bad flag should error")
	}
}

func TestRunRoutersAndExtras(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "routers", "extras"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"router-count spread", "§6 extras", "-- routers done", "-- extras done"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunDijkstraExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(fastFlags, "dijkstra"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "evaluator kernels") || !strings.Contains(s, "delta vs heap") || strings.Contains(s, "linear") {
		t.Errorf("output malformed:\n%s", s)
	}
}

func TestRunJSONOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_COLD.json")
	var out bytes.Buffer
	if err := run(append(fastFlags, "-json", path, "table1", "ensemble"), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("bench JSON malformed: %v\n%s", err, data)
	}
	if f.V != 1 {
		t.Fatalf("file schema version %d, want 1", f.V)
	}
	if len(f.Runs) != 2 {
		t.Fatalf("%d experiment records, want 2", len(f.Runs))
	}
	for _, r := range f.Runs {
		if r.DurNs <= 0 || r.NsPerOp <= 0 || r.Iters <= 0 {
			t.Fatalf("record %q has empty timings: %+v", r.Experiment, r)
		}
	}
	if f.Runs[0].Experiment != "table1" || f.Runs[1].Experiment != "ensemble" {
		t.Fatalf("experiment order wrong: %+v", f.Runs)
	}
	// table1 runs on internal packages (no public-API telemetry), so it
	// must omit counters; ensemble drives cold.GenerateEnsemble and must
	// report them.
	if f.Runs[0].Counters != nil {
		t.Fatalf("table1 reported counters: %+v", f.Runs[0].Counters)
	}
	ec := f.Runs[1].Counters
	if ec == nil || ec["replicas"] == 0 || ec["generations"] == 0 || ec["evaluations"] == 0 {
		t.Fatalf("ensemble counters missing: %+v", ec)
	}
}

func TestRunValidateExperiment(t *testing.T) {
	records := filepath.Join(t.TempDir(), "VALIDATE_COLD.jsonl")
	var out bytes.Buffer
	args := append(fastFlags, "-validate-count", "6", "-validate-records", records, "validate")
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Ensemble characterization", "Validation scorecards", "-- validate done"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output:\n%s", want, s)
		}
	}
	data, err := os.ReadFile(records)
	if err != nil {
		t.Fatal(err)
	}
	// 6 cold + 250 zoo + 250 er + 250 ba records, one JSON object per line.
	lines := bytes.Count(data, []byte("\n"))
	if want := 6 + 3*250; lines != want {
		t.Errorf("%d record lines, want %d", lines, want)
	}
	var rec map[string]any
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &rec); err != nil {
		t.Fatalf("first record not JSON: %v", err)
	}
	if rec["source"] != "cold" {
		t.Errorf("first record source = %v, want cold", rec["source"])
	}
}
