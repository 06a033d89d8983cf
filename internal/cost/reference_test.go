package cost

// The shortest-path oracle for the evaluator's Dijkstra: a textbook O(n²)
// array-scan Dijkstra over an adjacency matrix, sharing no code, CSR
// snapshot or scratch buffer with the evaluator, the link loads and cost
// accumulated along its trees, plus a table of small named graphs whose
// shortest-path costs and tie-broken parents were checked by hand. The
// randomized and fuzzed equivalence tests compare the evaluator against
// referenceDijkstra and referenceLoads; the table pins the oracle itself.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// referenceDijkstra returns shortest-path distances and predecessors from
// src over the adjacency matrix w (w[u][v] = +Inf when there is no link),
// and the nodes it finalized, in order. It finalizes the lowest-indexed
// node among equal distances and relaxes only on strict improvement, so a
// node's parent is the first finalized neighbor on a shortest path — the
// tie-break the Routing contract states.
func referenceDijkstra(w [][]float64, src int) (dist []float64, parent []int32, order []int) {
	n := len(w)
	dist, parent, done := make([]float64, n), make([]int32, n), make([]bool, n)
	order = make([]int, 0, n)
	for i := range dist {
		dist[i], parent[i] = math.Inf(1), -1
	}
	dist[src] = 0
	for {
		u := -1
		for i := 0; i < n; i++ {
			if !done[i] && !math.IsInf(dist[i], 1) && (u < 0 || dist[i] < dist[u]) {
				u = i
			}
		}
		if u < 0 {
			return dist, parent, order
		}
		done[u] = true
		order = append(order, u)
		for v := 0; v < n; v++ {
			if !done[v] && dist[u]+w[u][v] < dist[v] {
				dist[v], parent[v] = dist[u]+w[u][v], int32(u)
			}
		}
	}
}

// adjacency returns g's links as a weight matrix for referenceDijkstra.
func adjacency(g *graph.Graph, dist [][]float64) [][]float64 {
	n := g.N()
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = math.Inf(1)
			if g.HasEdge(i, j) {
				w[i][j] = dist[i][j]
			}
		}
	}
	return w
}

// matchesReference fails the test unless rt holds, for every source, the
// reference distances and parents of g bit for bit.
func matchesReference(t testing.TB, label string, g *graph.Graph, dist [][]float64, rt *Routing) {
	t.Helper()
	w := adjacency(g, dist)
	for s := 0; s < g.N(); s++ {
		wantDist, wantParent, _ := referenceDijkstra(w, s)
		for v := range wantDist {
			if rt.PathDist[s][v] != wantDist[v] || rt.Parent[s][v] != wantParent[v] {
				t.Fatalf("%s: route %d→%d: got dist %v parent %d, reference dist %v parent %d",
					label, s, v, rt.PathDist[s][v], rt.Parent[s][v], wantDist[v], wantParent[v])
			}
		}
	}
}

// referenceLoads returns the link loads of shortest-path routing over w
// (load[i][j] == load[j][i]) with the demand matrix dem, or nil when some
// node is unreachable. Each source pushes its demands to higher-indexed
// destinations up referenceDijkstra's tree in reverse finalization order,
// so every node's accumulated demand folds into its parent only after all
// of its children's — the sum the evaluator must reproduce bit for bit in
// whatever order its kernel emits the tree.
func referenceLoads(w, dem [][]float64) [][]float64 {
	n := len(w)
	load := make([][]float64, n)
	for i := range load {
		load[i] = make([]float64, n)
	}
	for s := 0; s < n; s++ {
		_, parent, order := referenceDijkstra(w, s)
		if len(order) != n {
			return nil
		}
		acc := make([]float64, n)
		copy(acc[s+1:], dem[s][s+1:])
		for k := n - 1; k >= 1; k-- {
			v := order[k]
			pv := parent[v]
			load[v][pv] += acc[v]
			load[pv][v] += acc[v]
			acc[pv] += acc[v]
		}
	}
	return load
}

// referenceCost sums the linear objective over g's links in ascending
// (i, j) order, from the loads of referenceLoads.
func referenceCost(g *graph.Graph, dist, load [][]float64, p Params) float64 {
	var links float64
	core := 0
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			if g.HasEdge(i, j) {
				l := dist[i][j]
				links += p.K0 + p.K1*l + p.K2*l*load[i][j]
			}
		}
		if g.Degree(i) > 1 {
			core++
		}
	}
	return links + p.K3*float64(core)
}

// matchesReferenceLoads fails the test unless e routes g exactly like the
// reference and its capacities and cost equal the reference loads and cost
// bit for bit (+Inf and no loads when g is disconnected).
func matchesReferenceLoads(t testing.TB, label string, e *Evaluator, g *graph.Graph) {
	t.Helper()
	ev := e.Evaluate(g)
	matchesReference(t, label, g, e.Dist(), ev.Routing)
	load := referenceLoads(adjacency(g, e.Dist()), e.Traffic().Demand)
	if load == nil {
		if ev.Connected || !math.IsInf(e.CostUncached(g), 1) {
			t.Fatalf("%s: disconnected graph evaluated as connected", label)
		}
		return
	}
	for k, edge := range ev.Edges {
		if got, want := ev.Capacities[k], load[edge.I][edge.J]; got != want {
			t.Fatalf("%s: link (%d,%d) load %v, reference %v", label, edge.I, edge.J, got, want)
		}
	}
	if e.linkCost == nil {
		if got, want := e.CostUncached(g), referenceCost(g, e.Dist(), load, e.Params()); got != want {
			t.Fatalf("%s: Cost %v, reference %v", label, got, want)
		}
	}
}

// namedGraph is a small hand-checked routing fixture: n PoPs, links with
// their lengths, and the all-pairs shortest-path costs and tie-broken
// parents (-1 for the source itself and for unreachable nodes).
type namedGraph struct {
	name   string
	n      int
	links  []namedLink
	dist   [][]float64
	parent [][]int32
}

type namedLink struct {
	i, j   int
	length float64
}

var inf = math.Inf(1)

var namedGraphs = []namedGraph{
	{
		name:   "single node",
		n:      1,
		dist:   [][]float64{{0}},
		parent: [][]int32{{-1}},
	},
	{
		name:  "path 0-1-2-3",
		n:     4,
		links: []namedLink{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}},
		dist: [][]float64{
			{0, 1, 3, 6},
			{1, 0, 2, 5},
			{3, 2, 0, 3},
			{6, 5, 3, 0},
		},
		parent: [][]int32{
			{-1, 0, 1, 2},
			{1, -1, 1, 2},
			{1, 2, -1, 2},
			{1, 2, 3, -1},
		},
	},
	{
		name:  "star centred on 0",
		n:     4,
		links: []namedLink{{0, 1, 1}, {0, 2, 2}, {0, 3, 3}},
		dist: [][]float64{
			{0, 1, 2, 3},
			{1, 0, 3, 4},
			{2, 3, 0, 5},
			{3, 4, 5, 0},
		},
		parent: [][]int32{
			{-1, 0, 0, 0},
			{1, -1, 0, 0},
			{2, 0, -1, 0},
			{3, 0, 0, -1},
		},
	},
	{
		// The direct 0-2 link (3) is longer than the detour through 1 (2),
		// so no route uses it.
		name:  "triangle with a shortcut",
		n:     3,
		links: []namedLink{{0, 1, 1}, {1, 2, 1}, {0, 2, 3}},
		dist: [][]float64{
			{0, 1, 2},
			{1, 0, 1},
			{2, 1, 0},
		},
		parent: [][]int32{
			{-1, 0, 1},
			{1, -1, 1},
			{1, 2, -1},
		},
	},
	{
		// A unit square 0-1-3-2-0: each diagonal pair has two equal-length
		// routes, and the tie goes to the lower-indexed intermediate node.
		name:  "equal-length tie",
		n:     4,
		links: []namedLink{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}},
		dist: [][]float64{
			{0, 1, 1, 2},
			{1, 0, 2, 1},
			{1, 2, 0, 1},
			{2, 1, 1, 0},
		},
		parent: [][]int32{
			{-1, 0, 0, 1},
			{1, -1, 0, 1},
			{2, 0, -1, 2},
			{1, 3, 3, -1},
		},
	},
	{
		name:  "disconnected pair",
		n:     4,
		links: []namedLink{{0, 1, 2}, {2, 3, 5}},
		dist: [][]float64{
			{0, 2, inf, inf},
			{2, 0, inf, inf},
			{inf, inf, 0, 5},
			{inf, inf, 5, 0},
		},
		parent: [][]int32{
			{-1, 0, -1, -1},
			{1, -1, -1, -1},
			{-1, -1, -1, 2},
			{-1, -1, 3, -1},
		},
	},
}

// build returns the fixture's graph and an evaluator whose distance matrix
// holds the link lengths (entries between unlinked PoPs are never read).
func (ng namedGraph) build(t *testing.T) (*graph.Graph, *Evaluator) {
	t.Helper()
	g := graph.New(ng.n)
	dist := make([][]float64, ng.n)
	pops := make([]float64, ng.n)
	for i := range dist {
		dist[i] = make([]float64, ng.n)
		pops[i] = 1
	}
	for _, l := range ng.links {
		g.AddEdge(l.i, l.j)
		dist[l.i][l.j], dist[l.j][l.i] = l.length, l.length
	}
	e, err := NewEvaluator(dist, traffic.Gravity(pops, 1), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return g, e
}

// TestDijkstraNamedGraphs checks the reference and the evaluator against
// the hand-checked costs and parents of every named graph.
func TestDijkstraNamedGraphs(t *testing.T) {
	for _, ng := range namedGraphs {
		t.Run(ng.name, func(t *testing.T) {
			g, e := ng.build(t)
			w := adjacency(g, e.Dist())
			rt := e.Evaluate(g).Routing
			for s := 0; s < ng.n; s++ {
				refDist, refParent, _ := referenceDijkstra(w, s)
				for v := 0; v < ng.n; v++ {
					wantDist, wantParent := ng.dist[s][v], ng.parent[s][v]
					if refDist[v] != wantDist || refParent[v] != wantParent {
						t.Fatalf("reference %d→%d: dist %v parent %d, want %v %d", s, v, refDist[v], refParent[v], wantDist, wantParent)
					}
					if rt.PathDist[s][v] != wantDist || rt.Parent[s][v] != wantParent {
						t.Fatalf("evaluator %d→%d: dist %v parent %d, want %v %d", s, v, rt.PathDist[s][v], rt.Parent[s][v], wantDist, wantParent)
					}
				}
			}
		})
	}
}

// leafContext returns an evaluator on n PoPs whose link lengths are either
// Euclidean (unit false) or drawn from {1, 2} (unit true), so that most
// siblings in a shortest-path tree tie on distance and only the id
// tie-break orders them.
func leafContext(t *testing.T, n int, seed int64, unit bool) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dist := geom.DistanceMatrix(geom.NewUniform().Sample(n, rng))
	if unit {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				l := float64(1 + rng.Intn(2))
				dist[i][j], dist[j][i] = l, l
			}
		}
	}
	pops := traffic.NewExponential().Sample(n, rng)
	e, err := NewEvaluator(dist, traffic.Gravity(pops, 1), Params{K0: 10, K1: 1, K2: 3e-4, K3: 12})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLoadsMatchReferenceLeafHeavy compares the evaluator's routing, loads
// and cost with the reference on the graphs where most nodes are leaves —
// the nodes the kernel finalizes without the heap — including equal-length
// leaf links whose order rests on the id tie-break, leaf sources, the
// smallest contexts and disconnected graphs with leaves.
func TestLoadsMatchReferenceLeafHeavy(t *testing.T) {
	star := func(n, hub int) *graph.Graph {
		g := graph.New(n)
		for v := 0; v < n; v++ {
			g.AddEdge(hub, v)
		}
		return g
	}
	caterpillar := func(n int) *graph.Graph {
		g := graph.New(n)
		spine := (n + 2) / 3
		for v := 1; v < n; v++ {
			if v < spine {
				g.AddEdge(v-1, v)
			} else {
				g.AddEdge(v%spine, v)
			}
		}
		return g
	}
	// hubSpoke meshes the hubs (every stride-th node) and hangs every other
	// node off the hub just below it, so leaves and hubs interleave by id.
	hubSpoke := func(n, stride int) *graph.Graph {
		g := graph.New(n)
		for v := 0; v < n; v++ {
			h := v - v%stride
			if v != h {
				g.AddEdge(h, v)
				continue
			}
			for u := 0; u < v; u += stride {
				g.AddEdge(u, v)
			}
		}
		return g
	}
	randomTree := func(rng *rand.Rand, n, extra int) *graph.Graph {
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(rng.Intn(v), v)
		}
		for k := 0; k < extra && n > 2; k++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		return g
	}
	twoStars := func(n int) *graph.Graph {
		g := graph.New(n)
		for v := 1; v < n; v++ {
			if v < n/2 {
				g.AddEdge(0, v)
			} else if v > n/2 {
				g.AddEdge(n/2, v)
			}
		}
		return g
	}

	cases := 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, unit := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			for _, n := range []int{1, 2, 3, 7, 30, 65} {
				e := leafContext(t, n, seed, unit)
				graphs := []struct {
					name string
					g    *graph.Graph
				}{
					{"empty", graph.New(n)},
					{"star at 0", star(n, 0)},
					{"star at mid", star(n, n/2)},
					{"caterpillar", caterpillar(n)},
					{"hub-spoke 3", hubSpoke(n, 3)},
					{"hub-spoke 5", hubSpoke(n, 5)},
					{"tree", randomTree(rng, n, 0)},
					{"tree+3", randomTree(rng, n, 3)},
					{"two stars", twoStars(n)},
				}
				for _, c := range graphs {
					label := fmt.Sprintf("seed %d unit %v n %d %s", seed, unit, n, c.name)
					matchesReferenceLoads(t, label, e, c.g)
					cases++
				}
			}
		}
	}
	if cases < 500 {
		t.Fatalf("only %d cases, want >= 500", cases)
	}
}

// TestLoadsMatchReferenceRoundingTie pins the per-source repair of the leaf
// runs: node 1's leaves 2 and 3 hang off it by links of length 0.5 and
// 0.25, so by link length 3 sorts first, but 2^53 away from source 0 both
// distances round to 2^53 and the id tie-break puts 2 first. The demands
// are chosen so that folding them into node 1 in the two orders rounds
// differently.
func TestLoadsMatchReferenceRoundingTie(t *testing.T) {
	far := math.Ldexp(1, 53)
	dist := [][]float64{
		{0, far, 1, 1},
		{far, 0, 0.5, 0.25},
		{1, 0.5, 0, 1},
		{1, 0.25, 1, 0},
	}
	ulp := math.Ldexp(1, -52)
	dem := [][]float64{
		{0, 1, ulp / 2, 3 * ulp / 4},
		{1, 0, 1, 1},
		{ulp / 2, 1, 0, 1},
		{3 * ulp / 4, 1, 1, 0},
	}
	e, err := NewEvaluator(dist, &traffic.Matrix{Demand: dem}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	matchesReferenceLoads(t, "rounding tie", e, g)
}
