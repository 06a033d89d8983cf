package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// DijkstraKernels measures the evaluator's two evaluation paths — the full
// heap-Dijkstra sweep and the incremental delta path on single-link edits —
// across context sizes, on GA-like sparse candidates (~3 links per PoP).
// Both are bit-identical in output (the cost package's equivalence suite
// proves it), so this table is purely about speed: it documents the
// sibling-grouping payoff behind the GA's lineage-based evaluation.
func DijkstraKernels(o Options) *Table {
	o = o.normalize()
	sizes := []int{16, 32, 64, 128, 256}
	reps := max(o.Trials, 3)
	t := &Table{
		Title: "evaluator kernels: heap full sweep vs incremental delta (sparse candidates, ~3 links/PoP)",
		Notes: []string{
			fmt.Sprintf("%d evaluations per cell; delta = CostDelta on 1-link children of a primed base", reps),
		},
		Columns: []string{"n", "heap µs", "delta µs", "delta vs heap"},
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(o.Seed))
		pts := geom.NewUniform().Sample(n, rng)
		pops := traffic.NewExponential().Sample(n, rng)
		dist := geom.DistanceMatrix(pts)
		tm := traffic.Gravity(pops, traffic.DefaultGravityScale)
		params := cost.Params{K0: 10, K1: 1, K2: 2e-4, K3: 0}

		g := graph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 3.0/float64(n) {
					g.AddEdge(i, j)
				}
			}
		}
		g.Connect(dist)

		e, err := cost.NewEvaluatorOptions(dist, tm, params, cost.Options{Delta: cost.ForceOn})
		if err != nil {
			panic(err)
		}
		e.SetCacheLimit(0)

		// Full sweep: CostUncached never reads or records a delta base.
		e.CostUncached(g) // warm scratch buffers outside the timer
		start := time.Now()
		for r := 0; r < reps; r++ {
			e.CostUncached(g)
		}
		heapUS := float64(time.Since(start).Microseconds()) / float64(reps)

		// Delta: 1-link children of g, base primed once outside the timer.
		children := make([]*graph.Graph, 8)
		diffs := make([][]graph.Edge, len(children))
		for k := range children {
			child := g.Clone()
			i, j := rng.Intn(n), rng.Intn(n)
			for i == j {
				j = rng.Intn(n)
			}
			child.SetEdge(i, j, !child.HasEdge(i, j))
			children[k] = child
			diffs[k] = g.Diff(child, nil)
		}
		e.CostDelta(g, children[0], diffs[0]) // primes the base
		start = time.Now()
		for r := 0; r < reps; r++ {
			k := r % len(children)
			e.CostDelta(g, children[k], diffs[k])
		}
		deltaUS := float64(time.Since(start).Microseconds()) / float64(reps)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", heapUS),
			fmt.Sprintf("%.0f", deltaUS),
			fmt.Sprintf("%.2fx", heapUS/deltaUS),
		})
	}
	return t
}
