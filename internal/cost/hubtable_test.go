package cost

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

// hubGraph builds the hub-and-leaves graph a HubTable describes: the hub
// links plus every other PoP attached to the first of hubs at the least
// distance.
func hubGraph(e *Evaluator, hubs []int, hubEdges [][2]int) *graph.Graph {
	n := e.N()
	g := graph.New(n)
	for _, he := range hubEdges {
		g.AddEdge(he[0], he[1])
	}
	isHub := make([]bool, n)
	for _, h := range hubs {
		isHub[h] = true
	}
	for v := 0; v < n; v++ {
		if isHub[v] {
			continue
		}
		best, bestD := hubs[0], math.Inf(1)
		for _, h := range hubs {
			if d := e.Dist()[v][h]; d < bestD {
				best, bestD = h, d
			}
		}
		g.AddEdge(v, best)
	}
	return g
}

// randomHubs draws 1..n distinct hubs in random order and links among them:
// a random spanning tree half of the time (a connected graph), plus random
// extra links, or a sparse random set that often leaves hubs apart.
func randomHubs(rng *rand.Rand, n int) ([]int, [][2]int) {
	hubs := rng.Perm(n)[:1+rng.Intn(n)]
	h := len(hubs)
	linked := make(map[[2]int]bool)
	var edges [][2]int
	add := func(i, j int) {
		a, b := hubs[i], hubs[j]
		if a > b {
			a, b = b, a
		}
		if a != b && !linked[[2]int{a, b}] {
			linked[[2]int{a, b}] = true
			edges = append(edges, [2]int{hubs[i], hubs[j]})
		}
	}
	if rng.Intn(2) == 0 {
		for i := 1; i < h; i++ {
			add(i, rng.Intn(i))
		}
	}
	for k := rng.Intn(h + 1); k > 0; k-- {
		add(rng.Intn(h), rng.Intn(h))
	}
	return hubs, edges
}

// hubNonEdge returns a random pair of hubs not linked in g, or ok=false
// when the hubs are fully linked.
func hubNonEdge(rng *rand.Rand, g *graph.Graph, hubs []int) (a, b int, ok bool) {
	var free [][2]int
	for i, x := range hubs {
		for _, y := range hubs[i+1:] {
			if !g.HasEdge(x, y) {
				free = append(free, [2]int{x, y})
			}
		}
	}
	if len(free) == 0 {
		return 0, 0, false
	}
	p := free[rng.Intn(len(free))]
	return p[0], p[1], true
}

// checkEstimate requires est to price g as the documented bound promises:
// +Inf exactly when g is disconnected, otherwise within estimateRelErr(n)
// of Cost; ok=false only outside [minEstimate, maxEstimate].
func checkEstimate(t *testing.T, what string, e *Evaluator, g *graph.Graph, est float64, ok bool) {
	t.Helper()
	c := e.CostUncached(g)
	if !ok {
		if est >= minEstimate && est <= maxEstimate {
			t.Fatalf("%s: no estimate for in-range %v (Cost %v)", what, est, c)
		}
		return
	}
	if math.IsInf(c, 1) || math.IsInf(est, 1) {
		if c != est {
			t.Fatalf("%s: estimate %v, Cost %v: disagree on connectivity", what, est, c)
		}
		return
	}
	if math.Abs(est-c) > estimateRelErr(e.N())*est {
		t.Fatalf("%s: estimate %v, Cost %v: off by %.3g relative, bound %.3g",
			what, est, c, math.Abs(est-c)/est, estimateRelErr(e.N()))
	}
}

// TestHubTableMatchesCost: for random hub sets of every size (hubs with
// and without leaves, links that leave the graph connected or not, n down
// to 1), Estimate is within the documented bound of the exact Cost and
// +Inf exactly when the graph is disconnected; EstimateAddLink equals
// AddLink followed by Estimate bit for bit and meets the same bound.
func TestHubTableMatchesCost(t *testing.T) {
	params := []Params{
		DefaultParams(),
		{K0: 10, K1: 1, K2: 0, K3: 0},
		{K0: 10, K1: 1, K2: 1e-3, K3: 100},
		{K0: 0, K1: 0, K2: 1, K3: 0},
		{K0: 0, K1: 0, K2: 0, K3: 0},
	}
	rng := rand.New(rand.NewSource(9))
	var disconnected, bareHubs int // coverage of the cases the bound must span
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%3
		if trial >= 30 {
			n = 1 + rng.Intn(40)
		}
		p := params[trial%len(params)]
		e := randomContext(t, n, p, int64(trial))
		hubs, edges := randomHubs(rng, n)
		g := hubGraph(e, hubs, edges)
		if !g.IsConnected() {
			disconnected++
		}
		links := make(map[int]int)
		for _, he := range edges {
			links[he[0]]++
			links[he[1]]++
		}
		for _, h := range hubs {
			if g.Degree(h) == links[h] {
				bareHubs++
			}
		}
		tab := e.NewHubTable()
		tab.Fill(hubs, edges)
		est, ok := tab.Estimate()
		checkEstimate(t, "fill", e, g, est, ok)
		for step := 0; step < 3; step++ {
			a, b, free := hubNonEdge(rng, g, hubs)
			if !free {
				break
			}
			est, ok := tab.EstimateAddLink(a, b)
			g.AddEdge(a, b)
			checkEstimate(t, "add-link estimate", e, g, est, ok)
			tab.AddLink(a, b)
			after, afterOK := tab.Estimate()
			if math.Float64bits(after) != math.Float64bits(est) || afterOK != ok {
				t.Fatalf("trial %d step %d: EstimateAddLink %v (%v), AddLink+Estimate %v (%v)", trial, step, est, ok, after, afterOK)
			}
		}
	}
	if disconnected == 0 || bareHubs == 0 {
		t.Fatalf("coverage: %d disconnected graphs, %d hubs without leaves", disconnected, bareHubs)
	}
}

// TestEstimateAddLinkUnknown: under a LinkCostFunc the per-link costs need
// the loads, so the table must report no estimate, even for the linear
// function itself; and it must report none beyond maxEstimateN.
func TestEstimateAddLinkUnknown(t *testing.T) {
	p := DefaultParams()
	e := randomContext(t, 8, p, 1)
	e.SetLinkCostFunc(Linear(p))
	big := randomContext(t, maxEstimateN+1, p, 2)
	for _, e := range []*Evaluator{e, big} {
		tab := e.NewHubTable()
		tab.Fill([]int{0, 1}, nil)
		if est, ok := tab.Estimate(); ok {
			t.Fatalf("n=%d: estimate = %v, want none", e.N(), est)
		}
		if est, ok := tab.EstimateAddLink(0, 1); ok {
			t.Fatalf("n=%d: add-link estimate = %v, want none", e.N(), est)
		}
	}
}

// TestEstimateRelErrBound pins the documented bound: below 6e-11 for every
// context the table estimates, so more than 16× below the 1e-9 slack the
// heuristics widen estimates by.
func TestEstimateRelErrBound(t *testing.T) {
	if b := estimateRelErr(maxEstimateN); b >= 6e-11 {
		t.Fatalf("estimateRelErr(%d) = %v, want < 6e-11", maxEstimateN, b)
	}
}
