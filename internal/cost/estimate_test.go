package cost

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

// randomSparse returns a random graph that is often disconnected, so adding
// one link sometimes joins two components and sometimes does not.
func randomSparse(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for k := rng.Intn(n + 1); k > 0; k-- {
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			g.AddEdge(i, j)
		}
	}
	return g
}

// nonEdge returns a random node pair that is not a link of g, or ok=false
// when g is complete.
func nonEdge(rng *rand.Rand, g *graph.Graph) (a, b int, ok bool) {
	n := g.N()
	if g.NumEdges() == n*(n-1)/2 {
		return 0, 0, false
	}
	for {
		if a, b = rng.Intn(n), rng.Intn(n); a != b && !g.HasEdge(a, b) {
			return a, b, true
		}
	}
}

// closeRel reports whether x and y agree within rel relative error (both
// +Inf counts as agreement).
func closeRel(x, y, rel float64) bool {
	if math.IsInf(x, 1) || math.IsInf(y, 1) {
		return x == y
	}
	return math.Abs(x-y) <= rel*math.Max(math.Abs(x), math.Abs(y))
}

// TestEstimateAddLinkMatchesCost: on random bases, connected or not, the
// add-one-link estimate agrees with the exact Cost of base+link within
// 1e-12 relative, both from a freshly filled table and from one extended
// with AddLink; and an extended table agrees with a fresh Fill of the
// extended graph.
func TestEstimateAddLinkMatchesCost(t *testing.T) {
	params := []Params{
		DefaultParams(),
		{K0: 10, K1: 1, K2: 0, K3: 0},
		{K0: 10, K1: 1, K2: 1e-3, K3: 100},
		{K0: 0, K1: 0, K2: 1, K3: 0},
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(39)
		p := params[trial%len(params)]
		e := randomContext(t, n, p, int64(trial))
		var base *graph.Graph
		if trial%2 == 0 {
			base = randomConnected(rng, n, 3.0/float64(n), e.Dist())
		} else {
			base = randomSparse(rng, n)
		}
		tab := e.NewPathTable()
		tab.Fill(base)
		fresh := e.NewPathTable()
		for step := 0; step < 4; step++ {
			a, b, ok := nonEdge(rng, base)
			if !ok {
				break
			}
			est, known := tab.EstimateAddLink(a, b)
			if !known {
				t.Fatalf("trial %d: estimate unknown under the linear model", trial)
			}
			g := base.Clone()
			g.AddEdge(a, b)
			if c := e.CostUncached(g); !closeRel(est, c, 1e-12) {
				t.Fatalf("trial %d step %d (n=%d, %v): estimate %v, Cost %v", trial, step, n, p, est, c)
			}
			tab.AddLink(a, b)
			base = g
			fresh.Fill(base)
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if x, y := tab.dist[s*n+d], fresh.dist[s*n+d]; !closeRel(x, y, 1e-12) {
						t.Fatalf("trial %d step %d: relaxed dist(%d,%d) = %v, fresh %v", trial, step, s, d, x, y)
					}
				}
			}
		}
	}
}

// TestEstimateAddLinkUnknown: under a LinkCostFunc the per-link costs need
// the loads, so the estimate must report unknown — even for the linear
// function itself.
func TestEstimateAddLinkUnknown(t *testing.T) {
	p := DefaultParams()
	e := randomContext(t, 8, p, 1)
	e.SetLinkCostFunc(Linear(p))
	tab := e.NewPathTable()
	tab.Fill(graph.New(8))
	if est, ok := tab.EstimateAddLink(0, 1); ok {
		t.Fatalf("estimate under a LinkCostFunc = %v, want unknown", est)
	}
}
