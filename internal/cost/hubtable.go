package cost

import (
	"math"
)

// Hub-level cost estimates. The greedy heuristics only ever build
// hub-and-leaves graphs: a set of hubs, links among them, and every other
// PoP attached by one link to its nearest hub. No shortest path passes
// through a leaf, so with ℓ_v the length of v's link (0 for a hub), g(v)
// v's hub and D the shortest-path lengths over the hub links alone,
//
//	dist(s,d) = ℓ_s + ℓ_d                   when g(s) = g(d)
//	dist(s,d) = ℓ_s + D[g(s)][g(d)] + ℓ_d   otherwise.
//
// Under the linear link model the bandwidth term is k2·Σ_{s<d} t_sd·dist(s,d)
// (the identity RouteCost tests), so it splits into a constant of the
// grouping, A = Σ_{s<d} t_sd·(ℓ_s+ℓ_d), plus Σ_{u<v} T_uv·D_uv over hub
// pairs, where T_uv sums the demand between the two hubs' groups. A HubTable
// holds ℓ, D, T, A and the routing-free cost terms, so a candidate's cost,
// and that of the candidate plus one hub link, take O(h²) over its h hubs
// and no Dijkstra.
//
// Every term of both the estimate and the exact Cost is non-negative and
// both round the same real number, so they differ by rounding alone:
// |est − Cost| ≤ estimateRelErr(n)·est (DESIGN.md, "Hub-level pricing").
// Callers that need exact costs widen an estimate by a slack above that
// bound and price exactly only what the widened intervals cannot decide.

// maxEstimateN is the largest context a HubTable estimates for. There the
// rounding bound estimateRelErr is below 6e-11, and it grows as n².
const maxEstimateN = 512

// minEstimate and maxEstimate bound the estimates a HubTable reports. Below
// the floor (zero included) a product may have underflowed, and above the
// ceiling a sum may overflow; either breaks the relative bound, so the table
// reports no estimate there.
const (
	minEstimate = 0x1p-900
	maxEstimate = 0x1p900
)

// estimateRelErr bounds |est − Cost|/est for an n-PoP context: each side is
// within γ_K = K·2⁻⁵³/(1−K·2⁻⁵³) of the cost in real arithmetic, with
// K = n²+3n+8 for the estimate and n²+2n+8 for Cost, so together
// (γ_Ke + γ_Kc)/(1 − γ_Ke) (DESIGN.md derives the counts).
func estimateRelErr(n int) float64 {
	gamma := func(k int) float64 {
		x := float64(k) * 0x1p-53
		return x / (1 - x)
	}
	ge, gc := gamma(n*n+3*n+8), gamma(n*n+2*n+8)
	return (ge + gc) / (1 - ge)
}

// HubTable is the hub-level cost state of one hub-and-leaves graph, for
// Estimate and EstimateAddLink. It belongs to the Evaluator that made it
// (NewHubTable) and, like it, is not safe for concurrent use.
type HubTable struct {
	e      *Evaluator
	h      int       // hubs
	pos    []int32   // pos[v]: v's index among the hubs, or -1 for a leaf
	group  []int32   // group[v]: the index of v's hub
	leaf   []float64 // ℓ_v, 0 for hubs
	deg    []int32   // deg[i]: hub i's degree
	dist   []float64 // dist[i*h+j]: D between hubs i and j, +Inf across components
	dem    []float64 // dem[i*h+j], i < j: T between the groups of hubs i and j
	rowDem []float64 // rowDem[s]: Σ_{d≠s} t_sd over the pairs' upper-triangle demands
	colA   []float64 // AddLink scratch: row a before the update
	colB   []float64 // AddLink scratch: row b before the update
	local  float64   // A: Σ_{s<d} t_sd·(ℓ_s+ℓ_d)
	fixed  float64   // Σ (k0 + k1·ℓ) over the graph's links
	core   int       // nodes of degree > 1
}

// NewHubTable returns an empty table sized for e's context. Fill it before
// use.
func (e *Evaluator) NewHubTable() *HubTable {
	n := e.n
	t := &HubTable{e: e, pos: make([]int32, n), group: make([]int32, n), leaf: make([]float64, n),
		deg: make([]int32, n), colA: make([]float64, n), colB: make([]float64, n), rowDem: make([]float64, n)}
	for s := 0; s < n; s++ {
		for d := s + 1; d < n; d++ {
			x := e.dflat[s*n+d]
			t.rowDem[s] += x
			t.rowDem[d] += x
		}
	}
	return t
}

// estimates reports whether the table can estimate at all: only under the
// linear link model (a LinkCostFunc needs the per-link loads) and for
// n ≤ maxEstimateN.
func (t *HubTable) estimates() bool {
	return t.e.linkCost == nil && t.e.n <= maxEstimateN
}

// Fill loads the hub-and-leaves graph of hubs (distinct, at least one) with
// the distinct hub links hubEdges, every other PoP attached to its nearest
// hub: the first of hubs at the least distance, the rule heuristics'
// assemble uses. It takes O(n² + h³) and allocates only when h passes its
// high-water mark. Without estimates it does nothing.
func (t *HubTable) Fill(hubs []int, hubEdges [][2]int) {
	if !t.estimates() {
		return
	}
	e := t.e
	n, h := e.n, len(hubs)
	p := e.params
	t.h = h
	t.dist = grow(t.dist, h*h)
	t.dem = grow(t.dem, h*h)
	for v := range t.pos {
		t.pos[v] = -1
	}
	for i, v := range hubs {
		t.pos[v] = int32(i)
		t.group[v] = int32(i)
		t.leaf[v] = 0
		t.deg[i] = 0
	}
	t.fixed, t.core = 0, 0
	for v := 0; v < n; v++ {
		if t.pos[v] >= 0 {
			continue
		}
		row := e.dist[v]
		best, bestD := 0, math.Inf(1)
		for i, u := range hubs {
			if d := row[u]; d < bestD {
				best, bestD = i, d
			}
		}
		t.group[v] = int32(best)
		t.leaf[v] = bestD
		t.deg[best]++
		t.fixed += p.K0 + p.K1*bestD
	}
	dist := t.dist[:h*h]
	for k := range dist {
		dist[k] = math.Inf(1)
	}
	for i := 0; i < h; i++ {
		dist[i*h+i] = 0
	}
	for _, he := range hubEdges {
		i, j := int(t.pos[he[0]]), int(t.pos[he[1]])
		l := e.dist[he[0]][he[1]]
		dist[i*h+j], dist[j*h+i] = l, l
		t.deg[i]++
		t.deg[j]++
		t.fixed += p.K0 + p.K1*l
	}
	for k := 0; k < h; k++ {
		rowK := dist[k*h : (k+1)*h]
		for i := 0; i < h; i++ {
			dik := dist[i*h+k]
			if math.IsInf(dik, 1) {
				continue
			}
			row := dist[i*h : (i+1)*h]
			for j, dkj := range rowK {
				if y := dik + dkj; y < row[j] {
					row[j] = y
				}
			}
		}
	}
	for i := 0; i < h; i++ {
		if t.deg[i] > 1 {
			t.core++
		}
	}
	// A = Σ_s ℓ_s·r_s, with r_s the demand of every pair at s; T sums
	// each pair's demand into its groups' cell, folded to i < j at the end.
	t.local = 0
	for s, l := range t.leaf {
		t.local += l * t.rowDem[s]
	}
	dem := t.dem[:h*h]
	clear(dem)
	for s := 0; s < n; s++ {
		cells := dem[int(t.group[s])*h : (int(t.group[s])+1)*h]
		row := e.dflat[s*n : (s+1)*n]
		for d := s + 1; d < n; d++ {
			cells[t.group[d]] += row[d]
		}
	}
	for i := 0; i < h; i++ {
		for j := i + 1; j < h; j++ {
			dem[i*h+j] += dem[j*h+i]
		}
	}
}

// grow returns buf resliced to length k, reallocated only when too small.
func grow(buf []float64, k int) []float64 {
	if cap(buf) < k {
		return make([]float64, k)
	}
	return buf[:k]
}

// Estimate returns the cost of t's graph, equal to Cost of that graph
// within estimateRelErr(n) relative, and +Inf exactly when the graph is
// disconnected. It reports ok=false when no sound estimate exists: under a
// LinkCostFunc, for n > maxEstimateN, or for an estimate outside
// [minEstimate, maxEstimate].
func (t *HubTable) Estimate() (est float64, ok bool) {
	if !t.estimates() {
		return 0, false
	}
	h := t.h
	routed := t.local
	for i := 0; i < h; i++ {
		for j := i + 1; j < h; j++ {
			x := t.dist[i*h+j]
			if math.IsInf(x, 1) {
				return math.Inf(1), true
			}
			routed += t.dem[i*h+j] * x
		}
	}
	return t.total(t.fixed, routed, t.core)
}

// total assembles an estimate from its terms and applies the range check.
func (t *HubTable) total(fixed, routed float64, core int) (float64, bool) {
	p := t.e.params
	est := fixed + p.K2*routed + p.K3*float64(core)
	return est, est >= minEstimate && est <= maxEstimate
}

// EstimateAddLink returns Estimate of t's graph plus the link between hubs
// a and b (not already in it), in O(h²) and without changing t; it equals,
// bit for bit, AddLink(a, b) followed by Estimate.
func (t *HubTable) EstimateAddLink(a, b int) (est float64, ok bool) {
	if !t.estimates() {
		return 0, false
	}
	e := t.e
	h := t.h
	l := e.dist[a][b]
	i, j := int(t.pos[a]), int(t.pos[b])
	pa, pb := t.dist[i*h:(i+1)*h], t.dist[j*h:(j+1)*h]
	routed := t.local
	for x := 0; x < h; x++ {
		row := t.dist[x*h : (x+1)*h]
		dem := t.dem[x*h : (x+1)*h]
		xa, xb := pa[x]+l, pb[x]+l
		for y := x + 1; y < h; y++ {
			v := row[y]
			if w := xa + pb[y]; w < v {
				v = w
			}
			if w := xb + pa[y]; w < v {
				v = w
			}
			if math.IsInf(v, 1) {
				return math.Inf(1), true
			}
			routed += dem[y] * v
		}
	}
	core := t.core
	if t.deg[i] == 1 {
		core++
	}
	if t.deg[j] == 1 {
		core++
	}
	return t.total(t.fixed+(e.params.K0+e.params.K1*l), routed, core)
}

// AddLink updates t in O(h²) to describe its graph plus the link between
// hubs a and b, which must not already be in it.
func (t *HubTable) AddLink(a, b int) {
	if !t.estimates() {
		return
	}
	e := t.e
	h := t.h
	l := e.dist[a][b]
	i, j := int(t.pos[a]), int(t.pos[b])
	colA, colB := t.colA[:h], t.colB[:h]
	copy(colA, t.dist[i*h:(i+1)*h])
	copy(colB, t.dist[j*h:(j+1)*h])
	for x := 0; x < h; x++ {
		row := t.dist[x*h : (x+1)*h]
		xa, xb := colA[x]+l, colB[x]+l
		for y := range row {
			if w := xa + colB[y]; w < row[y] {
				row[y] = w
			}
			if w := xb + colA[y]; w < row[y] {
				row[y] = w
			}
		}
	}
	for _, k := range [2]int{i, j} {
		if t.deg[k] == 1 {
			t.core++
		}
		t.deg[k]++
	}
	t.fixed += e.params.K0 + e.params.K1*l
}
