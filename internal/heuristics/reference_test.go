package heuristics

// The oracle for hub-level pricing: the textbook heuristics that price
// every candidate with a full Cost evaluation — the best-star scan, the
// hub-growing loop, the greedy wiring, and a Random Greedy driver over it
// that recomputes its start star in every permutation. referenceAll runs
// every heuristic with them; the production code, which prices from
// cost.HubTable estimates and runs Cost only on near ties, must reproduce
// its results bit for bit.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// referenceStar returns the best single-hub star and its hub, costing
// every star exactly (the first hub on ties).
func referenceStar(e *cost.Evaluator) (Result, int) {
	n := e.N()
	best, hub := Result{Name: "star", Cost: math.Inf(1)}, -1
	for h := 0; h < n; h++ {
		g := assemble(e, []int{h}, nil)
		if c := e.Cost(g); c < best.Cost {
			best.Graph, best.Cost, hub = g, c, h
		}
	}
	return best, hub
}

// referenceWiring is hubWiring without prices: it returns the inter-hub
// links for the whole hub set.
type referenceWiring func(e *cost.Evaluator, hubs []int, prev [][2]int, newHub int) [][2]int

// referenceGrowHubs is growHubs costing every candidate exactly.
func referenceGrowHubs(name string, e *cost.Evaluator, wire referenceWiring) Result {
	n := e.N()
	if n == 1 {
		return Result{Name: name, Graph: graph.New(1), Cost: e.Cost(graph.New(1))}
	}
	cur, hub0 := referenceStar(e)
	cur.Name = name
	hubs := []int{hub0}
	var hubEdges [][2]int
	for len(hubs) < n {
		bestC := cur.Cost
		var bestG *graph.Graph
		var bestHubs []int
		var bestEdges [][2]int
		for v := 0; v < n; v++ {
			if contains(hubs, v) {
				continue
			}
			cand := append(append([]int(nil), hubs...), v)
			edges := wire(e, cand, hubEdges, v)
			g := assemble(e, cand, edges)
			if c := e.Cost(g); c < bestC {
				bestC, bestG, bestHubs, bestEdges = c, g, cand, edges
			}
		}
		if bestG == nil {
			break
		}
		cur = Result{Name: name, Graph: bestG, Cost: bestC}
		hubs, hubEdges = bestHubs, bestEdges
	}
	return cur
}

// referenceGreedyWire keeps prev inter-hub edges and attaches newHub
// greedily, costing every candidate exactly.
func referenceGreedyWire(e *cost.Evaluator, hubs []int, prev [][2]int, newHub int) [][2]int {
	edges := append([][2]int(nil), prev...)
	others := hubs[:len(hubs)-1]
	// Mandatory first link: the one minimizing resulting network cost.
	bestH, bestC := -1, math.Inf(1)
	for _, h := range others {
		cand := append(append([][2]int(nil), edges...), [2]int{h, newHub})
		if c := e.Cost(assemble(e, hubs, cand)); c < bestC {
			bestH, bestC = h, c
		}
	}
	edges = append(edges, [2]int{bestH, newHub})
	linked := map[int]bool{bestH: true}
	// Optional further links while they decrease cost.
	for {
		curC := e.Cost(assemble(e, hubs, edges))
		bestH, bestC = -1, curC
		for _, h := range others {
			if linked[h] {
				continue
			}
			cand := append(append([][2]int(nil), edges...), [2]int{h, newHub})
			if c := e.Cost(assemble(e, hubs, cand)); c < bestC {
				bestH, bestC = h, c
			}
		}
		if bestH < 0 {
			return edges
		}
		edges = append(edges, [2]int{bestH, newHub})
		linked[bestH] = true
	}
}

// referenceRandomGreedy is RandomGreedy over referenceGreedyWire,
// recomputing the start star in every permutation.
func referenceRandomGreedy(e *cost.Evaluator, rng *rand.Rand, perms int) Result {
	n := e.N()
	best := Result{Name: "random-greedy", Cost: math.Inf(1)}
	if n == 1 {
		g := graph.New(1)
		return Result{Name: "random-greedy", Graph: g, Cost: e.Cost(g)}
	}
	for p := 0; p < perms; p++ {
		start, hub0 := referenceStar(e)
		hubs := []int{hub0}
		var hubEdges [][2]int
		cur := start.Graph
		curC := start.Cost
		for _, v := range rng.Perm(n) {
			if contains(hubs, v) {
				continue
			}
			cand := append(append([]int(nil), hubs...), v)
			edges := referenceGreedyWire(e, cand, hubEdges, v)
			g := assemble(e, cand, edges)
			if c := e.Cost(g); c < curC {
				cur, curC = g, c
				hubs = cand
				hubEdges = edges
			}
		}
		if curC < best.Cost {
			best.Graph = cur
			best.Cost = curC
		}
	}
	return best
}

// referenceAll is All with every candidate costed exactly.
func referenceAll(e *cost.Evaluator, rng *rand.Rand) []Result {
	star, _ := referenceStar(e)
	return []Result{
		PureMST(e),
		Clique(e),
		star,
		referenceGrowHubs("complete", e, func(_ *cost.Evaluator, hubs []int, _ [][2]int, _ int) [][2]int {
			return cliqueEdges(hubs)
		}),
		referenceGrowHubs("hub-mst", e, func(e *cost.Evaluator, hubs []int, _ [][2]int, _ int) [][2]int {
			return mstEdges(e, hubs)
		}),
		referenceGrowHubs("greedy-attach", e, referenceGreedyWire),
		referenceRandomGreedy(e, rng, DefaultRandomGreedyPerms),
	}
}

// checkAllMatchesReference runs All and referenceAll on separate
// evaluators for the same context (so neither sees the other's memoized
// costs) and requires equal graphs and bit-equal costs. It returns how
// many comparisons All priced exactly as near ties.
func checkAllMatchesReference(t *testing.T, got, want *cost.Evaluator, seed int64) int {
	t.Helper()
	s := newSeeder(got)
	gr := s.all(rand.New(rand.NewSource(seed)))
	wr := referenceAll(want, rand.New(rand.NewSource(seed)))
	for i := range wr {
		g, w := gr[i], wr[i]
		if g.Name != w.Name || !g.Graph.Equal(w.Graph) || math.Float64bits(g.Cost) != math.Float64bits(w.Cost) {
			t.Fatalf("%s: hub-priced result %v (cost %v) differs from reference %s %v (cost %v)",
				g.Name, g.Graph, g.Cost, w.Name, w.Graph, w.Cost)
		}
	}
	return s.nearTies
}

// TestGreedyScreenMatchesReference: the screened greedy wiring must pick
// exactly the links the unscreened loop picks, across context sizes,
// parameter regimes (no bandwidth cost, heavy hub cost) and seeds, and
// under a non-linear link cost, where the screen passes every candidate.
func TestGreedyScreenMatchesReference(t *testing.T) {
	params := []cost.Params{
		cost.DefaultParams(),
		{K0: 10, K1: 1, K2: 0, K3: 0},
		{K0: 10, K1: 1, K2: 1e-4, K3: 100},
		{K0: 10, K1: 1, K2: 1e-3, K3: 10},
		{K0: 0, K1: 1, K2: 2.5e-5, K3: 5},
		{K0: 100, K1: 0.5, K2: 4e-4, K3: 0},
	}
	// The unscreened reference costs ~20k sweeps per context at n=45, so
	// the largest sizes run fewer seeds, and short or race-detector runs
	// (the comparison is single-goroutine) stop at n=20 with one seed.
	sizes := []struct {
		n     int
		seeds int64
	}{{2, 3}, {3, 3}, {5, 3}, {10, 3}, {20, 3}, {30, 2}, {45, 1}}
	if testing.Short() || raceEnabled {
		sizes = sizes[:5]
		for i := range sizes {
			sizes[i].seeds = 1
		}
	}
	for _, sz := range sizes {
		n := sz.n
		for pi, p := range params {
			for seed := int64(1); seed <= sz.seeds; seed++ {
				checkAllMatchesReference(t, ctx(t, n, p, seed+int64(100*pi)), ctx(t, n, p, seed+int64(100*pi)), seed)
			}
		}
	}
	t.Run("stepped-bandwidth", func(t *testing.T) {
		p := cost.Params{K0: 10, K1: 1, K2: 1e-3, K3: 10}
		stepped := func() *cost.Evaluator {
			e := ctx(t, 12, p, 7)
			fn, err := cost.SteppedBandwidth(p, 50)
			if err != nil {
				t.Fatal(err)
			}
			e.SetLinkCostFunc(fn)
			return e
		}
		checkAllMatchesReference(t, stepped(), stepped(), 7)
	})
}

// pointsContext builds a context on pts with the given populations.
func pointsContext(t testing.TB, pts []geom.Point, pops []float64, p cost.Params) *cost.Evaluator {
	t.Helper()
	e, err := cost.NewEvaluator(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestNearTiesMatchReference: on contexts built to tie — PoPs on a unit
// grid with equal populations, where mirror-image candidates cost the same
// up to rounding, and PoPs collapsed onto a few sites, where zero-length
// links make distinct candidates cost exactly the same — estimate intervals
// overlap, so less must fall back to exact costs; the results must still
// match the exact oracle bit for bit, and the fallback must have fired.
func TestNearTiesMatchReference(t *testing.T) {
	params := []cost.Params{
		cost.DefaultParams(),
		{K0: 10, K1: 1, K2: 1e-3, K3: 10},
		{K0: 0, K1: 1, K2: 2.5e-5, K3: 5},
	}
	type tieCase struct {
		name string
		pts  []geom.Point
		pops []float64
	}
	var cases []tieCase
	for _, side := range []int{2, 3, 4, 5} {
		var pts []geom.Point
		for i := 0; i < side*side; i++ {
			pts = append(pts, geom.Point{X: float64(i % side), Y: float64(i / side)})
		}
		pops := make([]float64, len(pts))
		for i := range pops {
			pops[i] = 1
		}
		cases = append(cases, tieCase{"grid", pts, pops})
	}
	rng := rand.New(rand.NewSource(3))
	for _, sz := range []struct{ n, sites int }{{6, 1}, {12, 3}, {20, 5}} {
		sites := geom.NewUniform().Sample(sz.sites, rng)
		pts := make([]geom.Point, sz.n)
		pops := make([]float64, sz.n)
		for i := range pts {
			pts[i] = sites[i%sz.sites]
			pops[i] = 1 + float64(i%2)
		}
		cases = append(cases, tieCase{"collapsed", pts, pops})
	}
	for _, c := range cases {
		for pi, p := range params {
			ties := checkAllMatchesReference(t, pointsContext(t, c.pts, c.pops, p), pointsContext(t, c.pts, c.pops, p), int64(pi))
			if ties == 0 {
				t.Errorf("%s n=%d (%v): no comparison fell back to exact costs", c.name, len(c.pts), p)
			}
		}
	}
}

// FuzzGreedyScreen compares All against referenceAll on fuzzed contexts:
// a seed, a size up to 24 and the four cost coefficients. Run locally with
//
//	go test ./internal/heuristics -run '^$' -fuzz FuzzGreedyScreen -fuzztime 30s
func FuzzGreedyScreen(f *testing.F) {
	f.Add(int64(1), uint8(10), 10.0, 1.0, 1e-4, 0.0)
	f.Add(int64(2), uint8(24), 10.0, 1.0, 0.0, 100.0)
	f.Add(int64(3), uint8(2), 0.0, 0.0, 0.0, 0.0)
	f.Add(int64(4), uint8(16), 1.0, 0.1, 1e-2, 3.0)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, k0, k1, k2, k3 float64) {
		for _, k := range []float64{k0, k1, k2, k3} {
			if !(k >= 0 && k <= 1e6) {
				t.Skip("coefficients outside [0, 1e6]")
			}
		}
		n := 2 + int(size)%23
		p := cost.Params{K0: k0, K1: k1, K2: k2, K3: k3}
		checkAllMatchesReference(t, ctx(t, n, p, seed), ctx(t, n, p, seed), seed)
	})
}
