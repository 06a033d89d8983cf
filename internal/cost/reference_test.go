package cost

// The shortest-path oracle for the evaluator's Dijkstra: a textbook O(n²)
// array-scan Dijkstra over an adjacency matrix, sharing no code, CSR
// snapshot or scratch buffer with the evaluator, plus a table of small
// named graphs whose shortest-path costs and tie-broken parents were
// checked by hand. The randomized and fuzzed equivalence tests compare the
// evaluator against referenceDijkstra; the table pins the oracle itself.

import (
	"math"
	"testing"

	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// referenceDijkstra returns shortest-path distances and predecessors from
// src over the adjacency matrix w (w[u][v] = +Inf when there is no link).
// It finalizes the lowest-indexed node among equal distances and relaxes
// only on strict improvement, so a node's parent is the first finalized
// neighbor on a shortest path — the tie-break the Routing contract states.
func referenceDijkstra(w [][]float64, src int) ([]float64, []int32) {
	n := len(w)
	dist, parent, done := make([]float64, n), make([]int32, n), make([]bool, n)
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
			return dist, parent
		}
		done[u] = true
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
		wantDist, wantParent := referenceDijkstra(w, s)
		for v := range wantDist {
			if rt.PathDist[s][v] != wantDist[v] || rt.Parent[s][v] != wantParent[v] {
				t.Fatalf("%s: route %d→%d: got dist %v parent %d, reference dist %v parent %d",
					label, s, v, rt.PathDist[s][v], rt.Parent[s][v], wantDist[v], wantParent[v])
			}
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
				refDist, refParent := referenceDijkstra(w, s)
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
