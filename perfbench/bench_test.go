package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 3, 4.75},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 20: 50, 25: 60, 100: 90, 999: 98, 1000: 99, 50000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	steady := func(med float64) side {
		return summarise([]float64{med * 0.99, med, med * 1.01, med})
	}
	for _, tc := range []struct {
		name     string
		old, new side
		want     string
	}{
		{"unchanged", steady(100), steady(105), "unchanged"},
		{"worse", steady(100), steady(120), "worse"},
		{"better", steady(100), steady(80), "better"},
		{"unresolved", summarise([]float64{50, 100, 150, 100}), steady(100), "unresolved"},
		{"wide but separated", summarise([]float64{100, 150, 200, 150}), summarise([]float64{50, 60, 90, 70}), "better"},
	} {
		if got := verdict(lower, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// benchmarkSpec reads the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

func names(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestShortRun runs every workload end to end against a freshly built
// coldd with scaled-down generation settings, untraced and traced, and
// checks the result line against BENCHMARK.json.
func TestShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs coldd")
	}
	sp := benchmarkSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "coldd")
	build := exec.Command("go", "build", "-o", bin, "github.com/networksynth/cold/cmd/coldd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building coldd: %v\n%s", err, out)
	}
	records := filepath.Join(dir, "records.jsonl")
	for _, wl := range []string{"paper-n30", "hot-hits", "mixed-n64"} {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			err := runMain([]string{"-short", "-workload", wl, "-seed", "3", "-seconds", "0.5", "-trace", trace,
				"-coldd", bin, "-workdir", filepath.Join(dir, "work"), "-out", records}, &out)
			if err != nil {
				t.Fatalf("%s trace %s: %v", wl, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: correct %v, %d of %d failed\n%s", wl, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := names(sp.EndToEnd)
			if trace == "1" {
				want = names(sp.PerLayer)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (trace == "0" && m.Value <= 0) {
					t.Errorf("%s trace %s: %s = %v", wl, trace, name, m.Value)
				}
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace %s: metrics %v, want %v", wl, trace, got, want)
			}
		}
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if code := compareMain([]string{"-spec", specPath, records, records}, &out); code != 0 {
		t.Fatalf("compare of a file with itself exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "paper-n30") || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("compare output lacks rows or verdicts:\n%s", out.String())
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64) string {
		var b bytes.Buffer
		for i, f := range []float64{0.99, 1, 1.01, 1, 1.005} {
			rec := record{Workload: "hot-hits", Seed: int64(i), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"latency_p50_ms": {latency * f, "ms"}}}}
			if err := json.NewEncoder(&b).Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(`{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareMain([]string{"-spec", specPath, write("old.jsonl", 1), write("new.jsonl", 1.5)}, &out); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse verdict:\n%s", out.String())
	}
}
