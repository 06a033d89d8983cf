package cost

// Evaluation benchmarks: the full heap-Dijkstra sweep against the delta
// path on GA-style single-link edits, and the full sweep on leaf-heavy
// and pendant-heavy paper-scale topologies. Run with:
//
//	go test ./internal/cost -run '^$' -bench 'Evaluate(Heap|Delta|HubLeaves|Pendant)' -benchtime 3x

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

var benchSizes = []int{64, 128, 256, 512}

// benchGraph builds a GA-like sparse connected candidate (~3 links/PoP).
func benchGraph(e *Evaluator, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	return randomConnected(rng, n, 6.0/float64(n), e.Dist())
}

// BenchmarkEvaluateHeap measures one full sweep (CostUncached) per op.
func BenchmarkEvaluateHeap(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			e := optionsContext(b, n, 1, Options{Delta: ForceOff})
			g := benchGraph(e, n)
			if e.CostUncached(g) == 0 {
				b.Fatal("zero cost")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.CostUncached(g)
			}
		})
	}
}

// BenchmarkEvaluateHubLeaves measures one full sweep (CostUncached) per op
// on an n=30 hub-and-spoke topology of the shape the GA converges to at
// the paper's scale: five meshed hubs, every other PoP a leaf hung off its
// nearest hub.
func BenchmarkEvaluateHubLeaves(b *testing.B) {
	const n, hubs = 30, 5
	e := optionsContext(b, n, 1, Options{Delta: ForceOff})
	g := graph.New(n)
	for h := 0; h < hubs; h++ {
		for k := h + 1; k < hubs; k++ {
			g.AddEdge(h, k)
		}
	}
	for v := hubs; v < n; v++ {
		near := 0
		for h := 1; h < hubs; h++ {
			if e.Dist()[v][h] < e.Dist()[v][near] {
				near = h
			}
		}
		g.AddEdge(near, v)
	}
	if e.CostUncached(g) == 0 {
		b.Fatal("zero cost")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CostUncached(g)
	}
}

// BenchmarkEvaluatePendant measures one full sweep (CostUncached) per op
// on the shapes the GA evaluates at the paper's scale: the context's MST
// (a tree: one DFS, no Dijkstra) plus its 2 or 6 shortest non-tree links
// (a small or larger 2-core with pendant trees).
func BenchmarkEvaluatePendant(b *testing.B) {
	for _, n := range []int{30, 64} {
		for _, extra := range []int{0, 2, 6} {
			b.Run(fmt.Sprintf("%s/links%d", sizeName(n), extra), func(b *testing.B) {
				e := optionsContext(b, n, 1, Options{Delta: ForceOff})
				g := mstPlusShortest(e, extra)
				if e.CostUncached(g) == 0 {
					b.Fatal("zero cost")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.CostUncached(g)
				}
			})
		}
	}
}

// mstPlusShortest returns the MST of e's distance matrix plus its extra
// shortest non-tree links.
func mstPlusShortest(e *Evaluator, extra int) *graph.Graph {
	d := e.Dist()
	g := graph.MST(e.N(), d)
	for k := 0; k < extra; k++ {
		bi, bj := -1, -1
		for i := 0; i < e.N(); i++ {
			for j := i + 1; j < e.N(); j++ {
				if !g.HasEdge(i, j) && (bi < 0 || d[i][j] < d[bi][bj]) {
					bi, bj = i, j
				}
			}
		}
		g.AddEdge(bi, bj)
	}
	return g
}

// BenchmarkEvaluateDelta measures CostDelta on single-link-toggled children
// of a fixed primed base — the GA's same-parent sibling pattern (the
// priming sweep is paid once, outside the loop).
func BenchmarkEvaluateDelta(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			e := optionsContext(b, n, 1, Options{Delta: ForceOn})
			base := benchGraph(e, n)
			rng := rand.New(rand.NewSource(9))
			const kids = 16
			children := make([]*graph.Graph, kids)
			diffs := make([][]graph.Edge, kids)
			for k := range children {
				child := base.Clone()
				i, j := rng.Intn(n), rng.Intn(n)
				for i == j {
					j = rng.Intn(n)
				}
				child.SetEdge(i, j, !child.HasEdge(i, j))
				children[k] = child
				diffs[k] = base.Diff(child, nil)
			}
			e.CostDelta(base, children[0], diffs[0]) // prime outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % kids
				e.CostDelta(base, children[k], diffs[k])
			}
		})
	}
}

// BenchmarkEvaluateDeltaCrossover measures CostDelta on crossover-shaped
// traffic: children alternate between two parents more than twice the edge
// budget apart, so with one retained base every parent switch forces a
// priming sweep (the pre-PR behavior) while the multi-base cache keeps
// both parents primed. Compare maxBases1 vs maxBases4 for the before/after.
func BenchmarkEvaluateDeltaCrossover(b *testing.B) {
	for _, maxBases := range []int{1, 4} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("maxBases%d/%s", maxBases, sizeName(n)), func(b *testing.B) {
				e := optionsContext(b, n, 1, Options{Delta: ForceOn, MaxBases: maxBases})
				pa := benchGraph(e, n)
				rng := rand.New(rand.NewSource(9))
				pb := pa.Clone()
				for pb.DiffCount(pa) <= 2*e.DeltaEdgeBudget()+1 {
					i, j := rng.Intn(n), rng.Intn(n)
					if i != j {
						pb.SetEdge(i, j, !pb.HasEdge(i, j))
					}
					pb.Connect(e.Dist())
				}
				const kids = 16
				parents := make([]*graph.Graph, kids)
				children := make([]*graph.Graph, kids)
				diffs := make([][]graph.Edge, kids)
				for k := range children {
					parent := pa
					if k%2 == 1 {
						parent = pb
					}
					child := parent.Clone()
					i, j := rng.Intn(n), rng.Intn(n)
					for i == j {
						j = rng.Intn(n)
					}
					child.SetEdge(i, j, !child.HasEdge(i, j))
					child.Connect(e.Dist())
					parents[k] = parent
					children[k] = child
					diffs[k] = parent.Diff(child, nil)
				}
				e.CostDelta(pa, children[0], diffs[0]) // prime pa outside the timer
				e.CostDelta(pb, children[1], diffs[1]) // prime pb outside the timer
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % kids
					e.CostDelta(parents[k], children[k], diffs[k])
				}
			})
		}
	}
}

func sizeName(n int) string { return fmt.Sprintf("n%d", n) }
