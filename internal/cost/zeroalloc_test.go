package cost

// Allocation regression tests for the evaluation hot path, plus the
// scratch-poisoning test behind the order[:popped] contract.
//
// The GA evaluates every candidate in every generation through
// Cost/CostUncached/CostDelta (the BenchmarkEvaluate* hot paths), which
// must stay zero-alloc in steady state: the CSR snapshot, Dijkstra scratch
// and diff buffers are pooled on the Evaluator and only grow to their
// high-water capacity. The breakdown-materializing Evaluate/EvaluateDelta
// API intentionally allocates — it returns caller-owned routing tables and
// per-edge slices — so the pins here target the paths the GA loop runs.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/graph"
)

// TestZeroAllocEvaluate pins steady-state full evaluations at zero
// allocations. The first call warms the pooled CSR and scratch buffers;
// every later evaluation of same-size graphs must reuse them outright.
func TestZeroAllocEvaluate(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		const n = 48
		e := optionsContext(t, n, 1, Options{Delta: ForceOff})
		rng := rand.New(rand.NewSource(2))
		g := randomConnected(rng, n, 6.0/n, e.Dist())
		dense := randomConnected(rng, n, 0.6, e.Dist()) // larger CSR: warms cols/weights high-water
		star := graph.New(n)                            // one long leaf run: the pdqsort path
		for v := 1; v < n; v++ {
			star.AddEdge(0, v)
		}
		tree := mstPlusShortest(e, 0)    // one DFS-built shared tree
		pendant := mstPlusShortest(e, 3) // 2-core roots with pendant trees
		for _, warm := range []*graph.Graph{dense, g, star, tree, pendant} {
			e.CostUncached(warm)
		}
		for _, graphs := range [][]*graph.Graph{{g}, {g, dense, star}, {tree, pendant, star}} {
			i := 0
			if allocs := testing.AllocsPerRun(20, func() {
				e.CostUncached(graphs[i%len(graphs)])
				i++
			}); allocs != 0 {
				t.Fatalf("steady-state CostUncached allocates %v objects/op, want 0", allocs)
			}
		}
	})
}

// TestZeroAllocEvaluateDelta pins steady-state incremental evaluations
// (CostDelta against a primed base) at zero allocations.
func TestZeroAllocEvaluateDelta(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		const n = 64
		e := optionsContext(t, n, 1, Options{Delta: ForceOn})
		rng := rand.New(rand.NewSource(3))
		base := randomConnected(rng, n, 6.0/n, e.Dist())
		const kids = 8
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
		e.CostDelta(base, children[0], diffs[0]) // priming sweep, outside the pin
		k := 0
		if allocs := testing.AllocsPerRun(32, func() {
			kk := k % kids
			k++
			e.CostDelta(base, children[kk], diffs[kk])
		}); allocs != 0 {
			t.Fatalf("steady-state CostDelta allocates %v objects/op, want 0", allocs)
		}
	})
}

// poisonScratch fills every pooled buffer with values that make any stale
// read detectable: NaN distances and loads, out-of-range node indices in
// parent/order/hpos, the leaf-run cursors, the leaf lists, the sorted rows
// and the shared-tree peel and tree slots (indexing with one panics),
// tree slots marked built and certified, affected all true. A
// correct evaluation fully re-initializes everything it reads, so results
// after poisoning must stay bit-identical to a fresh evaluator's.
func poisonScratch(e *Evaluator) {
	n := e.n
	bad := int32(n + 7)
	for i := 0; i < n; i++ {
		e.dj.dist[i] = math.NaN()
		e.dj.parent[i] = bad
		e.dj.order[i] = bad
		e.dj.acc[i] = math.NaN()
	}
	for i := range e.dj.load {
		e.dj.load[i] = math.NaN()
	}
	for i := range e.dj.hpos {
		e.dj.hpos[i] = bad
		e.dj.cursor[i] = bad
	}
	for i := range e.dj.affected {
		e.dj.affected[i] = true
	}
	for i := range e.csr.rowStart {
		e.csr.rowStart[i] = -1
	}
	for i := range e.csr.cols {
		e.csr.cols[i] = bad
	}
	for i := range e.csr.weights {
		e.csr.weights[i] = math.NaN()
	}
	for i := range e.csr.leafStart {
		e.csr.leafStart[i] = -1
	}
	for i := range e.csr.leafAdj {
		e.csr.leafAdj[i] = bad
	}
	for i := range e.csr.sorted {
		e.csr.sorted[i] = bad
	}
	for _, a := range [][]int32{e.sh.deg, e.sh.rootOf, e.sh.slotOf, e.sh.par} {
		for i := range a {
			a[i] = bad
		}
	}
	for _, t := range e.sh.trees {
		t.built, t.certified = true, true
		for _, a := range [][]int32{t.parent, t.pre, t.pos, t.size} {
			for i := range a {
				a[i] = bad
			}
		}
	}
}

// TestScratchPoisoning poisons the scratch buffers between evaluations —
// including right after a disconnected graph's Dijkstra stops short and
// leaves stale tail entries past e.dj.popped in e.dj.order — and verifies
// every following evaluation still matches a fresh evaluator bit for bit.
// Any consumer reading order past the popped prefix (pushTree and
// fullOrder read order[:popped]) would index out of range and panic, or
// fold NaN into a load and diverge.
func TestScratchPoisoning(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		const n = 24
		ev := optionsContext(t, n, 5, Options{Delta: ForceOn})
		ref := optionsContext(t, n, 5, Options{Delta: ForceOff})
		rng := rand.New(rand.NewSource(6))
		g := randomConnected(rng, n, 0.25, ev.Dist())

		poisonScratch(ev)
		sameEvaluation(t, "poisoned full sweep", ev.Evaluate(g), ref.Evaluate(g))
		for _, h := range []*graph.Graph{g, mstPlusShortest(ev, 0), mstPlusShortest(ev, 2)} {
			poisonScratch(ev)
			if got, want := ev.CostUncached(h), ref.Evaluate(h).Total; got != want {
				t.Fatalf("poisoned shared-tree sweep: cost %v, want %v", got, want)
			}
		}

		// Disconnected graph: Dijkstra finalizes only one component and
		// stops, leaving order[popped:] stale (and still poisoned).
		iso := g.Clone()
		for j := 1; j < n; j++ {
			iso.RemoveEdge(0, j)
		}
		poisonScratch(ev)
		if c := ev.Cost(iso); !math.IsInf(c, 1) {
			t.Fatalf("disconnected cost = %v, want +Inf", c)
		}

		// The scratch is now a mix of poison and a half-finished sweep; a
		// delta walk over connected and disconnected children must stay
		// exact without ever reading the stale tails.
		ev.Evaluate(g) // re-record the base
		cur := g
		for step := 0; step < 12; step++ {
			child, changed := gaEdit(rng, cur, ev.Dist(), step%3, step%4 != 3)
			poisonScratch(ev)
			sameEvaluation(t, "poisoned delta walk", ev.EvaluateDelta(child, changed), ref.Evaluate(child))
			cur = child
		}
	})
}

// TestZeroAllocHubTable pins the hub-level pricing's steady state — Fill,
// Estimate, EstimateAddLink and AddLink — at zero allocations.
func TestZeroAllocHubTable(t *testing.T) {
	const n = 30
	e := optionsContext(t, n, 4, Options{})
	hubs := []int{3, 17, 8, 25, 0}
	edges := [][2]int{{3, 17}, {17, 8}, {3, 25}}
	tab := e.NewHubTable()
	tab.Fill(hubs, edges)
	if allocs := testing.AllocsPerRun(20, func() {
		tab.Fill(hubs, edges)
		tab.Estimate()
		for _, h := range hubs[:4] {
			tab.EstimateAddLink(h, 0)
		}
		tab.AddLink(8, 0)
		tab.Estimate()
	}); allocs != 0 {
		t.Fatalf("steady-state HubTable fill/estimate/extend allocates %v objects/op, want 0", allocs)
	}
}
