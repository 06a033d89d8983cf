package core

// The GA routes same-parent sibling evaluations through the evaluator's
// incremental CostDelta path when the delta feature is on. That path is
// bit-identical to the full sweep, so an entire GA run — best graph, best
// cost, every population member, the whole history — must not change by a
// single bit when the feature toggles, at any parallelism.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// ctxOptions is ctx with explicit evaluator options.
func ctxOptions(t testing.TB, n int, p cost.Params, seed int64, opts cost.Options) *cost.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.NewExponential().Sample(n, rng)
	e, err := cost.NewEvaluatorOptions(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.BestCost != b.BestCost {
		t.Fatalf("%s: best cost %v vs %v", label, a.BestCost, b.BestCost)
	}
	if !a.Best.Equal(b.Best) {
		t.Fatalf("%s: best graphs differ", label)
	}
	if len(a.Costs) != len(b.Costs) {
		t.Fatalf("%s: population sizes differ", label)
	}
	for i := range a.Costs {
		if a.Costs[i] != b.Costs[i] {
			t.Fatalf("%s: costs[%d] %v vs %v", label, i, a.Costs[i], b.Costs[i])
		}
		if !a.Population[i].Equal(b.Population[i]) {
			t.Fatalf("%s: population[%d] differs", label, i)
		}
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths differ", label)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("%s: history[%d] %v vs %v", label, i, a.History[i], b.History[i])
		}
	}
}

// TestRunDeltaOnOffBitIdentical: a full GA run with the incremental path
// forced on equals the forced-off run bit for bit, serial and parallel,
// across params with and without hub costs, and
// for every multi-base cache size in {1, 4, 16} (1 reproduces the old
// single-base behavior, 16 exceeds the GA's per-generation parent count so
// nothing is ever evicted).
func TestRunDeltaOnOffBitIdentical(t *testing.T) {
	s := smallSettings()
	s.TrackHistory = true
	params := []cost.Params{
		{K0: 10, K1: 1, K2: 3e-4, K3: 0},
		{K0: 10, K1: 1, K2: 1e-3, K3: 25},
	}
	for _, p := range params {
		off, err := Run(ctxOptions(t, 16, p, 41, cost.Options{Delta: cost.ForceOff}), s, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxBases := range []int{1, 4, 16} {
			opts := cost.Options{Delta: cost.ForceOn, MaxBases: maxBases}
			on, err := Run(ctxOptions(t, 16, p, 41, opts), s, 99)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("delta on (maxBases=%d) vs off (serial)", maxBases)
			sameResult(t, label, on, off)

			sp := s
			sp.Parallelism = 3
			onPar, err := Run(ctxOptions(t, 16, p, 41, opts), sp, 99)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, label+" parallel", onPar, off)
		}
	}
}

// BenchmarkRun times full GA runs at a delta-relevant scale (n = 64, so
// both Auto features are live). The sub-benchmarks compare the incremental
// path off, the single-base behavior of earlier releases (maxBases1) and
// the multi-base default (maxBases4) — identical results, different speed.
func BenchmarkRun(b *testing.B) {
	cases := []struct {
		name string
		opts cost.Options
	}{
		{"deltaOff", cost.Options{Delta: cost.ForceOff}},
		{"maxBases1", cost.Options{Delta: cost.ForceOn, MaxBases: 1}},
		{"maxBases4", cost.Options{Delta: cost.ForceOn, MaxBases: 4}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s := DefaultSettings()
			s.PopulationSize = 40
			s.Generations = 20
			s.NumSaved = 4
			s.NumMutation = 12
			e := ctxOptions(b, 64, cost.Params{K0: 10, K1: 1, K2: 3e-4, K3: 0}, 3, tc.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(e, s, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLineageRecording: after breed, every non-elite slot either has no
// lineage or a lineage whose changed set exactly reproduces the child from
// the parent and fits the evaluator's edge budget.
func TestLineageRecording(t *testing.T) {
	e := ctxOptions(t, 14, cost.DefaultParams(), 7, cost.Options{Delta: cost.ForceOn})
	s := smallSettings()
	ga := newRunner(e, s, 5)
	if ga.lineage == nil {
		t.Fatal("runner did not allocate lineage with delta forced on")
	}
	pop := ga.initialPopulation()
	costs := ga.evaluate(pop)
	sortByCost(pop, costs)
	next := make([]*graph.Graph, s.PopulationSize)
	ga.breed(1, pop, costs, next)
	if !ga.bred {
		t.Fatal("breed did not mark lineage valid")
	}
	recorded := 0
	for slot, lin := range ga.lineage {
		if lin.parentIdx < 0 {
			continue
		}
		recorded++
		if slot < min(s.NumSaved, len(pop)) {
			t.Fatalf("elite slot %d has lineage", slot)
		}
		if lin.parent != pop[lin.parentIdx] {
			t.Fatalf("slot %d: lineage parent is not pop[%d]", slot, lin.parentIdx)
		}
		if len(lin.changed) == 0 || len(lin.changed) > e.DeltaEdgeBudget() {
			t.Fatalf("slot %d: %d changed edges outside (0, budget]", slot, len(lin.changed))
		}
		// Replaying the changed set onto the parent must reproduce the child.
		replay := lin.parent.Clone()
		for _, c := range lin.changed {
			replay.SetEdge(c.I, c.J, !replay.HasEdge(c.I, c.J))
		}
		if !replay.Equal(next[slot]) {
			t.Fatalf("slot %d: changed set does not reproduce the child", slot)
		}
	}
	if recorded == 0 {
		t.Fatal("no slot recorded lineage — delta grouping never exercised")
	}
}
