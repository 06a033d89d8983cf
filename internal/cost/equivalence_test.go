package cost

// Cross-implementation equivalence harness: the evaluator's Dijkstra must
// match the textbook reference (reference_test.go) BIT FOR BIT on distances
// and tie-broken parents, and the incremental delta path must match the
// full sweep on every output — total cost, per-link capacities, distances,
// parents — across randomized graphs and every GA edit kind. No
// tolerances: the memo cache and the determinism guarantees both assume
// the paths are interchangeable, so any drift is a bug.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// optionsContext builds a random n-PoP context with explicit evaluator
// options (cache off so every call routes from scratch).
func optionsContext(t testing.TB, n int, seed int64, opts Options) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.NewExponential().Sample(n, rng)
	p := Params{K0: 10, K1: 1, K2: 3e-4, K3: 12}
	e, err := NewEvaluatorOptions(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCacheLimit(0)
	return e
}

// sameEvaluation fails the test unless a and b agree bit for bit on every
// field, including routing tables.
func sameEvaluation(t *testing.T, label string, a, b *Evaluation) {
	t.Helper()
	if a.Total != b.Total || a.LinkTotal != b.LinkTotal || a.NodeCost != b.NodeCost ||
		a.ExistenceCost != b.ExistenceCost || a.LengthCost != b.LengthCost ||
		a.BandwidthCost != b.BandwidthCost {
		t.Fatalf("%s: totals differ: %+v vs %+v", label, a, b)
	}
	if a.Connected != b.Connected || a.CoreCount != b.CoreCount {
		t.Fatalf("%s: Connected/CoreCount differ", label)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("%s: edge counts differ: %d vs %d", label, len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || a.Lengths[i] != b.Lengths[i] || a.Capacities[i] != b.Capacities[i] {
			t.Fatalf("%s: edge %d differs: %v/%v/%v vs %v/%v/%v", label, i,
				a.Edges[i], a.Lengths[i], a.Capacities[i], b.Edges[i], b.Lengths[i], b.Capacities[i])
		}
	}
	if (a.Routing == nil) != (b.Routing == nil) {
		t.Fatalf("%s: one routing is nil", label)
	}
	if a.Routing == nil {
		return
	}
	for s := range a.Routing.PathDist {
		for v := range a.Routing.PathDist[s] {
			if a.Routing.PathDist[s][v] != b.Routing.PathDist[s][v] {
				t.Fatalf("%s: PathDist[%d][%d] differs: %v vs %v", label, s, v,
					a.Routing.PathDist[s][v], b.Routing.PathDist[s][v])
			}
			if a.Routing.Parent[s][v] != b.Routing.Parent[s][v] {
				t.Fatalf("%s: Parent[%d][%d] differs: %d vs %d", label, s, v,
					a.Routing.Parent[s][v], b.Routing.Parent[s][v])
			}
		}
	}
}

// TestDijkstraMatchesReference: the evaluator's routing must equal the
// reference Dijkstra's distances and tie-broken parents bit for bit on 120
// randomized graphs spanning sparse trees to near-cliques, connected and
// disconnected. Cost and RouteCost must agree with the same sweep exactly.
func TestDijkstraMatchesReference(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(37)
		e := optionsContext(t, n, seed, Options{})
		for _, p := range []float64{3.0 / float64(n), 0.3, 0.8} {
			g := randomConnected(rng, n, p, e.Dist())
			if rng.Intn(3) == 0 && g.NumEdges() > 0 {
				// Also cover disconnected graphs: drop a random edge
				// without repair (often splits sparse graphs).
				es := g.Edges()
				edge := es[rng.Intn(len(es))]
				g.RemoveEdge(edge.I, edge.J)
			}
			ev := e.Evaluate(g)
			label := fmt.Sprintf("seed %d n %d p %.2f", seed, n, p)
			matchesReference(t, label, g, e.Dist(), ev.Routing)
			if c := e.Cost(g); c != ev.Total {
				t.Fatalf("%s: Cost %v != Evaluate total %v", label, c, ev.Total)
			}
			want := math.Inf(1)
			if ev.Connected {
				want = 0
				for s := 0; s < n; s++ {
					for d := s + 1; d < n; d++ {
						want += e.Traffic().Demand[s][d] * ev.Routing.PathDist[s][d]
					}
				}
			}
			if rc := e.RouteCost(g); rc != want {
				t.Fatalf("%s: RouteCost %v != Σ t·dist %v", label, rc, want)
			}
			cases++
		}
	}
	if cases < 100 {
		t.Fatalf("only %d randomized cases, want >= 100", cases)
	}
}

// gaEdit applies one GA-style edit to g and returns the changed edge set
// (as base.Diff(child)). kind 0 = link mutation (geometric-ish add/remove
// counts), kind 1 = node mutation (collapse a non-leaf into a leaf hung off
// its nearest core node), kind 2 = single-link toggle.
func gaEdit(rng *rand.Rand, base *graph.Graph, dist [][]float64, kind int, repair bool) (*graph.Graph, []graph.Edge) {
	n := base.N()
	child := base.Clone()
	switch kind {
	case 0:
		removals, additions := rng.Intn(3), rng.Intn(3)
		es := child.Edges()
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		for i := 0; i < removals && i < len(es); i++ {
			child.RemoveEdge(es[i].I, es[i].J)
		}
		for k := 0; k < additions; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				child.AddEdge(i, j)
			}
		}
	case 1:
		core := child.CoreNodes()
		if len(core) >= 2 {
			v := core[rng.Intn(len(core))]
			var nearest int = -1
			for _, h := range core {
				if h != v && (nearest < 0 || dist[v][h] < dist[v][nearest]) {
					nearest = h
				}
			}
			for _, u := range child.Neighbors(v, nil) {
				child.RemoveEdge(v, u)
			}
			child.AddEdge(v, nearest)
		}
	default:
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			child.SetEdge(i, j, !child.HasEdge(i, j))
		}
	}
	if repair {
		child.Connect(dist)
	}
	return child, base.Diff(child, nil)
}

// TestCostDeltaMatchesCost: for randomized (base, child) pairs produced by
// every GA edit kind, CostDelta must return the bit-exact value of a fresh
// full evaluation, with the delta path forced on so small contexts
// exercise it too.
func TestCostDeltaMatchesCost(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 6 + rng.Intn(30)
		ev := optionsContext(t, n, seed, Options{Delta: ForceOn})
		ref := optionsContext(t, n, seed, Options{Delta: ForceOff})
		base := randomConnected(rng, n, 0.3, ev.Dist())
		for trial := 0; trial < 6; trial++ {
			child, changed := gaEdit(rng, base, ev.Dist(), trial%3, trial%2 == 0)
			got := ev.CostDelta(base, child, changed)
			want := ref.Cost(child)
			if got != want && !(got != got && want != want) { // NaN-safe exact compare
				t.Fatalf("seed %d n %d trial %d: CostDelta %v != Cost %v (%d changed)",
					seed, n, trial, got, want, len(changed))
			}
			// A wrong changed list must degrade to a correct full sweep.
			if got := ev.CostDelta(base, child, nil); got != want {
				t.Fatalf("seed %d trial %d: CostDelta with empty diff %v != %v", seed, trial, got, want)
			}
			cases++
		}
	}
	if cases < 100 {
		t.Fatalf("only %d randomized cases, want >= 100", cases)
	}
}

// TestEvaluateDeltaWalkMatchesEvaluate: a long random walk of small edits
// — the delta state advancing step by step, including through disconnected
// graphs and oversized edits that force full-sweep fallbacks — must stay
// bit-identical to fresh full evaluations throughout.
func TestEvaluateDeltaWalkMatchesEvaluate(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		n := 8 + rng.Intn(25)
		ev := optionsContext(t, n, seed, Options{Delta: ForceOn})
		ref := optionsContext(t, n, seed, Options{Delta: ForceOff})
		g := randomConnected(rng, n, 0.3, ev.Dist())
		if got := ev.Evaluate(g); got == nil {
			t.Fatal("nil evaluation")
		}
		for step := 0; step < 40; step++ {
			child, changed := gaEdit(rng, g, ev.Dist(), step%3, step%4 != 3)
			sameEvaluation(t, "delta walk", ev.EvaluateDelta(child, changed), ref.Evaluate(child))
			g = child
		}
	}
}

// TestDeltaEverySingleLinkToggle: for every possible single-link add and
// remove on a set of base graphs, EvaluateDelta must match a fresh full
// Evaluate bit for bit — the exhaustive version of the walk test, covering
// tree-edge removals (all sources affected), tie flips and disconnections.
func TestDeltaEverySingleLinkToggle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		n := 7 + rng.Intn(8)
		ev := optionsContext(t, n, seed, Options{Delta: ForceOn})
		ref := optionsContext(t, n, seed, Options{Delta: ForceOff})
		base := randomConnected(rng, n, 0.35, ev.Dist())
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				child := base.Clone()
				child.SetEdge(i, j, !child.HasEdge(i, j))
				changed := []graph.Edge{{I: i, J: j}}
				// Re-seed the state on the base each time so every toggle
				// tests base→child, not a chain.
				ev.Evaluate(base)
				sameEvaluation(t, "single toggle", ev.EvaluateDelta(child, changed), ref.Evaluate(child))
				if c := ev.CostDelta(base, child, changed); c != ref.Cost(child) {
					t.Fatalf("seed %d toggle {%d,%d}: CostDelta %v != Cost %v", seed, i, j, c, ref.Cost(child))
				}
			}
		}
	}
}

// TestDeltaStateSurvivesFallbacks: interleave delta evaluations with full
// evaluations of unrelated graphs and verify the next delta step is still
// exact — the retained state must never go stale silently.
func TestDeltaStateSurvivesFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(4000))
	const n = 20
	ev := optionsContext(t, n, 9, Options{Delta: ForceOn})
	ref := optionsContext(t, n, 9, Options{Delta: ForceOff})
	g := randomConnected(rng, n, 0.3, ev.Dist())
	ev.Evaluate(g)
	for step := 0; step < 30; step++ {
		if step%5 == 4 {
			// Unrelated full evaluation re-bases the retained state.
			other := randomConnected(rng, n, 0.5, ev.Dist())
			ev.Evaluate(other)
			g = other
		}
		child, changed := gaEdit(rng, g, ev.Dist(), step%3, true)
		sameEvaluation(t, "fallback interleave", ev.EvaluateDelta(child, changed), ref.Evaluate(child))
		g = child
	}
}
