package cost

import (
	"math"

	"github.com/networksynth/cold/internal/graph"
)

// Add-one-link cost estimates. Under the linear link model the bandwidth
// term satisfies k2·Σ_i ℓ_i·w_i == k2·Σ_{s<d} t_sd·dist(s,d) (RouteCost
// tests the identity), so a graph's cost follows from its all-pairs
// shortest-path lengths alone, and the lengths of g+{a,b} follow from g's
// in O(n²): a shortest s–d path in g+{a,b} either avoids the new link or
// crosses it once,
//
//	dist'(s,d) = min(P[s][d], P[s][a]+ℓ+P[b][d], P[s][b]+ℓ+P[a][d]).
//
// A PathTable holds P plus the routing-free cost terms; EstimateAddLink
// then prices g+{a,b} with no Dijkstra. Every term of both the estimate and
// the exact Cost is non-negative and each distance is a sum of at most n
// edge lengths, so the two differ only by rounding: relatively at most
// about (n²+4n)·2⁻⁵³, below 1.2e-10 for n ≤ maxEstimateN. Callers that
// need exact costs use the estimate only to rule candidates out.

// maxEstimateN is the largest context EstimateAddLink answers for; beyond
// it the rounding bound above would pass 1.2e-10.
const maxEstimateN = 1024

// PathTable is a graph's all-pairs shortest-path length table plus its
// routing-independent linear cost terms, for EstimateAddLink. It belongs to
// the Evaluator that made it (NewPathTable) and, like it, is not safe for
// concurrent use; Fill borrows the evaluator's CSR and Dijkstra scratch.
type PathTable struct {
	e     *Evaluator
	dist  []float64 // dist[s*n+d]: shortest s–d length, +Inf if unreachable
	deg   []int32
	colA  []float64 // AddLink scratch: row a before the update
	colB  []float64 // AddLink scratch: row b before the update
	fixed float64   // Σ (k0 + k1·ℓ) over the graph's links
	core  int       // nodes of degree > 1
}

// NewPathTable returns an empty table sized for e's context. Fill it
// before use.
func (e *Evaluator) NewPathTable() *PathTable {
	n := e.n
	return &PathTable{e: e, dist: make([]float64, n*n), deg: make([]int32, n),
		colA: make([]float64, n), colB: make([]float64, n)}
}

// Fill loads g's all-pairs shortest-path lengths (+Inf between
// components) and cost terms into t, without allocating. It counts as one
// all-sources sweep in Stats.FullSweeps but runs Dijkstra, over the
// evaluator's pooled CSR and scratch, only from sources that are not
// leaves hanging off a non-leaf: such a leaf s reaches every node through
// its one neighbor u, so its row is ℓ(s,u) plus u's row. That keeps each
// distance a sum of at most n-1 link lengths (the estimate's error bound)
// and makes a hub-and-leaves graph cost one Dijkstra per hub. No loads are
// pushed.
func (t *PathTable) Fill(g *graph.Graph) {
	e := t.e
	if g.N() != e.n {
		panic("cost: PathTable.Fill: graph size does not match the context")
	}
	e.counters.fullSweeps.Inc()
	e.fillCSR(g)
	n := e.n
	p := e.params
	rowStart, cols, weights := e.csr.rowStart, e.csr.cols, e.csr.weights
	t.fixed, t.core = 0, 0
	for i := 0; i < n; i++ {
		start, end := rowStart[i], rowStart[i+1]
		for k := start; k < end; k++ {
			if int(cols[k]) > i {
				t.fixed += p.K0 + p.K1*weights[k]
			}
		}
		t.deg[i] = end - start
		if end-start > 1 {
			t.core++
		}
	}
	hangs := func(s int) bool { return t.deg[s] == 1 && t.deg[cols[rowStart[s]]] > 1 }
	for s := 0; s < n; s++ {
		if !hangs(s) {
			e.dijkstra(s)
			copy(t.dist[s*n:(s+1)*n], e.dj.dist[:n])
		}
	}
	for s := 0; s < n; s++ {
		if hangs(s) {
			u, l := int(cols[rowStart[s]]), weights[rowStart[s]]
			row, urow := t.dist[s*n:(s+1)*n], t.dist[u*n:(u+1)*n]
			for d, x := range urow {
				row[d] = l + x
			}
			row[s] = 0
		}
	}
}

// AddLink updates t in O(n²) to describe its graph plus the link {a,b},
// which must not already be in it. The relaxed lengths agree with a fresh
// Fill up to rounding (they may differ in the last bits, which the
// estimate's tolerance already covers).
func (t *PathTable) AddLink(a, b int) {
	e := t.e
	n := e.n
	l := e.dist[a][b]
	copy(t.colA, t.dist[a*n:(a+1)*n])
	copy(t.colB, t.dist[b*n:(b+1)*n])
	for s := 0; s < n; s++ {
		row := t.dist[s*n : (s+1)*n]
		sa, sb := t.colA[s]+l, t.colB[s]+l
		for d := range row {
			if y := sa + t.colB[d]; y < row[d] {
				row[d] = y
			}
			if y := sb + t.colA[d]; y < row[d] {
				row[d] = y
			}
		}
	}
	for _, v := range [2]int{a, b} {
		if t.deg[v] == 1 {
			t.core++
		}
		t.deg[v]++
	}
	t.fixed += e.params.K0 + e.params.K1*l
}

// EstimateAddLink returns the cost of t's graph plus the link {a,b} (not
// already in it), equal to Cost of that graph up to the rounding bound in
// the comment above, and +Inf when it is disconnected. It reports ok=false
// when no sound estimate exists: under a LinkCostFunc, whose link costs
// need the per-link loads, or when n > maxEstimateN.
func (t *PathTable) EstimateAddLink(a, b int) (est float64, ok bool) {
	e := t.e
	n := e.n
	if e.linkCost != nil || n > maxEstimateN {
		return 0, false
	}
	l := e.dist[a][b]
	pa, pb := t.dist[a*n:(a+1)*n], t.dist[b*n:(b+1)*n]
	var routed float64
	for s := 0; s < n; s++ {
		row := t.dist[s*n : (s+1)*n]
		dem := e.dflat[s*n : (s+1)*n]
		sa, sb := pa[s]+l, pb[s]+l
		for d := s + 1; d < n; d++ {
			x := row[d]
			if y := sa + pb[d]; y < x {
				x = y
			}
			if y := sb + pa[d]; y < x {
				x = y
			}
			if math.IsInf(x, 1) {
				return math.Inf(1), true
			}
			routed += dem[d] * x
		}
	}
	core := t.core
	if t.deg[a] == 1 {
		core++
	}
	if t.deg[b] == 1 {
		core++
	}
	p := e.params
	return t.fixed + p.K0 + p.K1*l + p.K2*routed + p.K3*float64(core), true
}
