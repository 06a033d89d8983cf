package cost

// Tests for the shared-tree sweep (shared.go): the cost-only sweep must
// give the reference loads and cost bit for bit on every graph, and each
// source must take the dispatch path the graph's 2-core predicts — shared
// trees where the certificates hold, the per-source search where one
// fails.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// sharedContext returns an evaluator over n PoPs placed by placement:
// "uniform" in the unit square, "grid" on integer points of a small grid
// (exact length ties), or "collapsed", uniform with every third PoP moved
// onto an earlier one (zero-length links).
func sharedContext(t testing.TB, n int, seed int64, placement string) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	switch placement {
	case "grid":
		for i := range pts {
			pts[i] = geom.Point{X: float64(rng.Intn(4)), Y: float64(rng.Intn(4))}
		}
	case "collapsed":
		for i := 2; i < n; i += 3 {
			pts[i] = pts[rng.Intn(i)]
		}
	}
	return demandContext(t, geom.DistanceMatrix(pts), rng)
}

// demandContext returns a cache-less evaluator over dist with gravity
// demands from random populations.
func demandContext(t testing.TB, dist [][]float64, rng *rand.Rand) *Evaluator {
	t.Helper()
	pops := traffic.NewExponential().Sample(len(dist), rng)
	e, err := NewEvaluator(dist, traffic.Gravity(pops, 1), Params{K0: 10, K1: 1, K2: 3e-4, K3: 12})
	if err != nil {
		t.Fatal(err)
	}
	e.SetCacheLimit(0)
	return e
}

// expectedDispatch peels g to its 2-core by plain repeated removal and
// returns the dispatch counts a certified, tie-free sweep of connected g
// must show, with every pendant source counted as rerooted.
func expectedDispatch(g *graph.Graph) sweepCounts {
	n := g.N()
	deg := make([]int, n)
	removed := make([]bool, n)
	for v := range deg {
		deg[v] = g.Degree(v)
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] == 1 {
				removed[v], changed = true, true
				g.EachNeighbor(v, func(u int) {
					if !removed[u] {
						deg[u]--
					}
				})
			}
		}
	}
	var want sweepCounts
	for v := 0; v < n; v++ {
		if removed[v] {
			continue
		}
		hasPendant := false
		g.EachNeighbor(v, func(u int) { hasPendant = hasPendant || removed[u] })
		switch {
		case !hasPendant:
			want.plain++
		case deg[v] == 0: // the last node of a tree
			want.roots++
			want.dfsTrees++
		default:
			want.roots++
			want.searchTrees++
		}
	}
	want.rerooted = n - want.plain - want.roots
	return want
}

// sweepDispatch runs one cost-only sweep of g, fails the test unless the
// loads it leaves in the scratch equal the reference loads bit for bit
// (when g is connected), and returns its dispatch counts.
func sweepDispatch(t testing.TB, label string, e *Evaluator, g *graph.Graph) sweepCounts {
	t.Helper()
	e.sh.counts = sweepCounts{}
	c := e.CostUncached(g)
	if want := referenceLoads(adjacency(g, e.Dist()), e.Traffic().Demand); want != nil && !math.IsInf(c, 1) {
		n := g.N()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := e.dj.load[i*n+j]; got != want[i][j] {
					t.Fatalf("%s: shared-sweep load (%d,%d) %v, reference %v", label, i, j, got, want[i][j])
				}
			}
		}
	}
	return e.sh.counts
}

// relabel returns g with node v renamed perm[v].
func relabel(g *graph.Graph, perm []int) *graph.Graph {
	h := graph.New(g.N())
	for _, edge := range g.Edges() {
		h.AddEdge(perm[edge.I], perm[edge.J])
	}
	return h
}

// Graph families: trees of every shape the GA produces, 2-cores with
// pendant trees, and forests.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v-1, v)
	}
	return g
}

func starGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

func caterpillarGraph(n int) *graph.Graph {
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

func randomTreeGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v)
	}
	return g
}

// cycleChains is a cycle on the first c nodes with the rest hung off it as
// chains: each further node attaches to a random cycle node or extends
// the previous chain.
func cycleChains(rng *rand.Rand, n, c int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < c; v++ {
		g.AddEdge(v, (v+1)%c)
	}
	for v := c; v < n; v++ {
		if v > c && rng.Intn(2) == 0 {
			g.AddEdge(v-1, v)
		} else {
			g.AddEdge(rng.Intn(c), v)
		}
	}
	return g
}

// bridgedCycles is two cycles of c nodes each joined by a bridge, with the
// remaining nodes as random pendant trees.
func bridgedCycles(rng *rand.Rand, n, c int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < c; v++ {
		g.AddEdge(v, (v+1)%c)
		g.AddEdge(c+v, c+(v+1)%c)
	}
	g.AddEdge(0, c)
	for v := 2 * c; v < n; v++ {
		g.AddEdge(rng.Intn(v), v)
	}
	return g
}

// TestSharedTreesMatchReference compares the shared-tree sweep's loads
// and CostUncached bit for bit with referenceLoads/referenceCost, and
// checks the dispatch: on uniform placements every source takes its predicted
// shared path; on grid and collapsed placements a failed certificate may
// send pendant sources to the per-source search, but never a tie.
func TestSharedTreesMatchReference(t *testing.T) {
	cases := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, placement := range []string{"uniform", "grid", "collapsed"} {
			for _, n := range []int{1, 2, 3, 4, 9, 30, 64} {
				e := sharedContext(t, n, seed, placement)
				rng := rand.New(rand.NewSource(seed * 31))
				graphs := []struct {
					name string
					g    *graph.Graph
				}{
					{"path", pathGraph(n)},
					{"star", starGraph(n)},
					{"caterpillar", caterpillarGraph(n)},
					{"tree", randomTreeGraph(rng, n)},
				}
				if n >= 4 {
					graphs = append(graphs, struct {
						name string
						g    *graph.Graph
					}{"cycle+chains", cycleChains(rng, n, 3+rng.Intn(n-2))})
				}
				if n >= 9 {
					graphs = append(graphs, struct {
						name string
						g    *graph.Graph
					}{"bridged cycles", bridgedCycles(rng, n, 3+rng.Intn(n/2-2))})
				}
				for _, c := range graphs {
					for _, perm := range [][]int{nil, rng.Perm(n)} {
						g := c.g
						if perm != nil {
							g = relabel(g, perm)
						}
						label := fmt.Sprintf("seed %d %s n %d %s perm %v", seed, placement, n, c.name, perm != nil)
						matchesReferenceLoads(t, label, e, g)
						got := sweepDispatch(t, label, e, g)
						want := expectedDispatch(g)
						if got.tieFallback != 0 {
							t.Fatalf("%s: %d sources fell back on ties", label, got.tieFallback)
						}
						if placement != "uniform" {
							want.rerooted -= got.certFallback
							want.certFallback = got.certFallback
						}
						if got != want {
							t.Fatalf("%s: dispatch %+v, want %+v", label, got, want)
						}
						cases++
					}
				}
			}
		}
	}
	if cases < 400 {
		t.Fatalf("only %d cases, want >= 400", cases)
	}
}

// TestSharedTreesDisconnected checks that forests and graphs with an
// isolated PoP cost +Inf through the shared sweep, whichever source meets
// the missing component first.
func TestSharedTreesDisconnected(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{2, 3, 9, 30} {
			e := sharedContext(t, n, seed, "uniform")
			rng := rand.New(rand.NewSource(seed))
			forest := randomTreeGraph(rng, n)
			edges := forest.Edges()
			cut := edges[rng.Intn(len(edges))]
			forest.RemoveEdge(cut.I, cut.J)
			graphs := []*graph.Graph{forest, graph.New(n)}
			if n > 3 {
				cyc := cycleChains(rng, n, 3)
				for v := 0; v < n; v++ {
					if cyc.Degree(v) == 1 {
						cyc.RemoveEdge(v, cyc.Neighbors(v, nil)[0])
						break
					}
				}
				graphs = append(graphs, cyc)
			}
			for i, g := range graphs {
				label := fmt.Sprintf("seed %d n %d graph %d", seed, n, i)
				if c := e.CostUncached(g); !math.IsInf(c, 1) {
					t.Fatalf("%s: cost %v, want +Inf", label, c)
				}
				matchesReferenceLoads(t, label, e, g)
			}
		}
	}
}

// nudgedCycle returns a context and graph in which both certificates can
// be steered: the 4-cycle r=0, a=1, b=2, c=3 reaches b along r-a-b
// (length 3+1) and r-c-b (length (1+δ)+3), and a chain of pendant PoPs
// 4, 5, … hangs off r. δ = 0 would make the two routes tie exactly.
func nudgedCycle(t *testing.T, n int, delta float64) (*Evaluator, *graph.Graph) {
	t.Helper()
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = 50
			}
		}
	}
	set := func(i, j int, l float64) { dist[i][j], dist[j][i] = l, l }
	set(0, 1, 3)
	set(1, 2, 1)
	set(0, 3, 1+delta)
	set(3, 2, 3)
	g := graph.New(n)
	for _, edge := range [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 2}} {
		g.AddEdge(edge[0], edge[1])
	}
	for v := 4; v < n; v++ {
		set(v-1, v, 0.5+float64(v)/8)
		if v == 4 {
			set(0, 4, 0.75)
			g.AddEdge(0, 4)
		} else {
			g.AddEdge(v-1, v)
		}
	}
	return demandContext(t, dist, rand.New(rand.NewSource(int64(n)))), g
}

// TestSharedTreesCertificateFallback forces the re-rooting certificate to
// fail: the two routes to b differ by δ = 2⁻⁴⁶, inside the margin
// (n+1)·M·2⁻⁵⁰ ≈ 2⁻⁴² yet far from the lengths next to it in any row, so
// every row stays tie-free. Every pendant
// source must take the per-source search and still match the reference;
// with δ = 1 the same graph shares the root's tree.
func TestSharedTreesCertificateFallback(t *testing.T) {
	const n = 9
	pendants := n - 4
	for _, tc := range []struct {
		delta    float64
		fallback bool
	}{{math.Ldexp(1, -46), true}, {1, false}} {
		e, g := nudgedCycle(t, n, tc.delta)
		label := fmt.Sprintf("δ %g", tc.delta)
		matchesReferenceLoads(t, label, e, g)
		got := sweepDispatch(t, label, e, g)
		want := sweepCounts{plain: 3, roots: 1, rerooted: pendants, searchTrees: 1}
		if tc.fallback {
			want.rerooted, want.certFallback = 0, pendants
		}
		if got != want {
			t.Fatalf("δ %g: dispatch %+v, want %+v", tc.delta, got, want)
		}
	}
}

// TestSharedTreesTieFallback forces the tie-freedom check to fail: two
// links of r's row differ by one ulp, so every source takes the
// per-source search, and the loads still match the reference.
func TestSharedTreesTieFallback(t *testing.T) {
	const n = 9
	e, g := nudgedCycle(t, n, 1)
	d := e.Dist()
	l := math.Nextafter(d[0][4], 1)
	d[0][1], d[1][0] = l, l
	matchesReferenceLoads(t, "ulp tie", e, g)
	if got := sweepDispatch(t, "ulp tie", e, g); got != (sweepCounts{tieFallback: n}) {
		t.Fatalf("dispatch %+v, want every source on the tie fallback", got)
	}
}

// FuzzSharedTrees decodes a random spanning tree plus 0–7 extra links —
// the tree, small-2-core and larger-2-core shapes the GA evaluates — with
// optional collapsed points or a split-off component, and checks the
// shared sweep against the reference loads and Cost against Evaluate.
func FuzzSharedTrees(f *testing.F) {
	f.Add(int64(1), []byte{12, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(int64(5), []byte{29, 3, 1, 1, 1, 1, 1, 1, 1})
	f.Add(int64(-2), []byte{7, 0x87, 0, 0, 0, 200, 17, 9, 4})
	f.Add(int64(8), []byte{30, 0x40, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0]%40)
		flags := data[1]
		data = data[2:]
		rng := rand.New(rand.NewSource(seed))
		pts := geom.NewUniform().Sample(n, rng)
		if flags&0x80 != 0 { // collapsed points
			for i := 1; i < n; i += 2 {
				pts[i] = pts[rng.Intn(i)]
			}
		}
		e := demandContext(t, geom.DistanceMatrix(pts), rng)
		next := func() int {
			if len(data) == 0 {
				return rng.Int()
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(next()%v, v)
		}
		if flags&0x40 != 0 && n > 1 { // split off a component
			edges := g.Edges()
			cut := edges[next()%len(edges)]
			g.RemoveEdge(cut.I, cut.J)
		}
		for k := 0; k < int(flags&7) && n > 2; k++ {
			i, j := next()%n, next()%n
			if i != j {
				g.AddEdge(i, j)
			}
		}
		matchesReferenceLoads(t, "fuzz", e, g)
		sweepDispatch(t, "fuzz", e, g)
		if c, ev := e.Cost(g), e.Evaluate(g); c != ev.Total {
			t.Fatalf("Cost %v != Evaluate total %v", c, ev.Total)
		}
	})
}
