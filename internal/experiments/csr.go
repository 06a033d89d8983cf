package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// CSRHotPath measures the flat-memory CSR evaluation hot path: full-sweep
// cost per evaluation across context sizes, plus the steady-state heap
// allocation per evaluation (which must be zero — the CSR snapshot and all
// Dijkstra scratch are pooled on the evaluator and only grow to their
// high-water capacity; TestZeroAllocEvaluate pins the same property).
func CSRHotPath(o Options) *Table {
	o = o.normalize()
	sizes := []int{32, 64, 128, 256, 512}
	reps := max(o.Trials, 3)
	t := &Table{
		Title: "CSR evaluation hot path: full-sweep cost and steady-state allocation",
		Notes: []string{
			fmt.Sprintf("%d evaluations per cell on sparse GA-like candidates (~3 links/PoP)", reps),
			"alloc B/op is the ReadMemStats delta over the timed evaluations; 0 = pooled scratch fully reused",
		},
		Columns: []string{"n", "heap µs", "alloc B/op", "csr builds"},
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

		e, err := cost.NewEvaluator(dist, tm, params)
		if err != nil {
			panic(err)
		}
		e.SetCacheLimit(0)
		e.CostUncached(g) // warm the pooled CSR + scratch outside the timer
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for r := 0; r < reps; r++ {
			e.CostUncached(g)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", float64(elapsed.Microseconds())/float64(reps)),
			fmt.Sprintf("%.0f", float64(after.TotalAlloc-before.TotalAlloc)/float64(reps)),
			fmt.Sprintf("%d", e.Stats().CSRBuilds),
		})
	}
	return t
}
