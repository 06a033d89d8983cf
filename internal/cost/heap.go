package cost

import (
	"math"
	"slices"
)

// nodeHeap is an indexed binary min-heap of node ids keyed by the shared
// tentative-distance array, with decrease-key support via a position index.
// Ties are broken toward lower node ids, so among equal distances the node
// with the lowest index is finalized first. That fixes the finalization
// order, and with it the parents and the load accumulation order, for every
// graph: routing is deterministic and Evaluate, Cost and the delta path stay
// bit-identical.
type nodeHeap struct {
	dist  []float64 // shared with the Dijkstra scratch; never resized here
	nodes []int32   // heap storage: nodes[0] is the minimum
	pos   []int32   // pos[v] = index of v in nodes, -1 when absent, leafPos for a leaf
}

// leafPos marks a node dijkstra finalizes without the heap.
const leafPos = -2

// less orders nodes by (distance, id).
func (h *nodeHeap) less(a, b int32) bool { return before(h.dist, a, b) }

// before orders nodes by (distance, id), the heap's pop order.
func before(dist []float64, a, b int32) bool {
	da, db := dist[a], dist[b]
	return da < db || (da == db && a < b)
}

// push inserts v, which must not be in the heap.
func (h *nodeHeap) push(v int32) {
	h.nodes = append(h.nodes, v)
	h.pos[v] = int32(len(h.nodes) - 1)
	h.up(len(h.nodes) - 1)
}

// popMin removes and returns the minimum node.
func (h *nodeHeap) popMin() int32 {
	root := h.nodes[0]
	h.pos[root] = -1
	last := len(h.nodes) - 1
	if last > 0 {
		h.nodes[0] = h.nodes[last]
		h.pos[h.nodes[0]] = 0
	}
	h.nodes = h.nodes[:last]
	if last > 1 {
		h.down(0)
	}
	return root
}

// decrease restores the heap order after v's key decreased.
func (h *nodeHeap) decrease(v int32) {
	h.up(int(h.pos[v]))
}

func (h *nodeHeap) up(i int) {
	v := h.nodes[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.nodes[p]) {
			break
		}
		h.nodes[i] = h.nodes[p]
		h.pos[h.nodes[i]] = int32(i)
		i = p
	}
	h.nodes[i] = v
	h.pos[v] = int32(i)
}

func (h *nodeHeap) down(i int) {
	v := h.nodes[i]
	n := len(h.nodes)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(h.nodes[r], h.nodes[c]) {
			c = r
		}
		if !h.less(h.nodes[c], v) {
			break
		}
		h.nodes[i] = h.nodes[c]
		h.pos[h.nodes[i]] = int32(i)
		i = c
	}
	h.nodes[i] = v
	h.pos[v] = int32(i)
}

// dijkstra computes shortest paths from src over the CSR snapshot (the
// caller must have run fillCSR on the graph being evaluated) into the
// scratch buffers: distances in e.dj.dist and predecessors in e.dj.parent.
// It runs in O((n+m)·log n) and relaxes edges over the flat CSR slices. The
// return value is the number of reachable nodes.
//
// Leaves (degree-1 nodes other than src) never enter the heap: a leaf's
// only neighbor u is its parent, so the relaxation from u fixes its
// distance and parent for good, and relaxing u back from the leaf could
// never improve on dist[u]. The distances and parents are exactly those of
// a search that pushed every node through the heap. e.dj.order[:e.dj.popped]
// receives the nodes the heap did finalize, in pop order (increasing
// distance, ties toward lower ids); pushTree and fullOrder add the leaves
// from the snapshot's leaf lists.
func (e *Evaluator) dijkstra(src int) int {
	n := e.n
	dist, parent, order, pos := e.dj.dist, e.dj.parent, e.dj.order, e.dj.hpos
	rowStart, cols, weights := e.csr.rowStart, e.csr.cols, e.csr.weights
	for i := 0; i < n; i++ {
		dist[i] = math.Inf(1)
		parent[i] = -1
		pos[i] = -1
	}
	for _, v := range e.csr.leaves {
		pos[v] = leafPos
	}
	pos[src] = -1
	h := nodeHeap{dist: dist, nodes: e.dj.hnodes[:0], pos: pos}
	dist[src] = 0
	h.push(int32(src))
	count := 0
	for len(h.nodes) > 0 {
		u := h.popMin()
		order[count] = u
		count++
		du := dist[u]
		for k := rowStart[u]; k < rowStart[u+1]; k++ {
			v := cols[k]
			if nd := du + weights[k]; nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				if p := pos[v]; p >= 0 {
					h.decrease(v)
				} else if p == -1 {
					h.push(v)
				}
			}
		}
	}
	e.dj.hnodes = h.nodes // keep the grown backing array for reuse
	e.dj.popped = count
	for _, v := range e.csr.leaves {
		if parent[v] >= 0 {
			count++
		}
	}
	return count
}

// Leaf runs. A node's leaf children are the leaves hanging off it (all but
// src, the root), and the loads need them in (distance, id) order among
// their siblings: pushLoads folds every child's demand into its parent in
// reverse finalization order, and floating-point addition is not
// associative. fillLeafRuns sorts every CSR row by (link length, id) and
// lists each node's leaves in that order. Adding the parent's distance
// keeps that order except for rounding ties, which sortLeafRuns repairs per
// source.

// fillLeafRuns sorts the rows of the CSR snapshot into csr.sorted, builds
// the leaf runs from them and decides whether the snapshot is tie-free. For
// two neighbors a, b of one node with link lengths ℓa < ℓb, rounding can
// make du+ℓa == du+ℓb — and so put b first if b < a — only if ℓb−ℓa is at
// most one ulp of the sum. Every distance is below the sum M of all slot
// weights (twice the total link length, all weights non-negative and
// finite), so that ulp is below M·2⁻⁵¹, and a snapshot whose nonzero gaps
// between consecutive lengths in every sorted row exceed it lists every
// node's children, from every source, in sorted-row order: the leaf runs
// need no per-source repair, and the shared-tree sweep (shared.go) may
// splice preorders. Equal lengths give equal distances, ordered by id as
// sorted.
func (e *Evaluator) fillLeafRuns() {
	c := &e.csr
	m := len(c.cols)
	if cap(c.sorted) < m {
		c.sorted = make([]int32, m)
	} else {
		c.sorted = c.sorted[:m]
	}
	copy(c.sorted, c.cols)
	var total float64
	c.tieFree = true
	for _, w := range c.weights {
		total += w
		c.tieFree = c.tieFree && w >= 0
	}
	c.tieFree = c.tieFree && !math.IsInf(total, 0)
	c.total = total
	gap := total * 0x1p-51
	ls := c.leafStart
	ls[0] = 0
	c.hubs = c.hubs[:0]
	for u := 0; u < e.n; u++ {
		row, sorted := e.dist[u], c.sorted[c.rowStart[u]:c.rowStart[u+1]]
		sortByDist(sorted, row)
		k := ls[u]
		for i, v := range sorted {
			if i > 0 {
				if d := row[v] - row[sorted[i-1]]; d != 0 && d <= gap {
					c.tieFree = false
				}
			}
			if c.rowStart[v+1]-c.rowStart[v] == 1 {
				c.leafAdj[k] = v
				k++
			}
		}
		ls[u+1] = k
		c.leafCount[u] = k - ls[u]
		if k-ls[u] > 1 {
			c.hubs = append(c.hubs, int32(u))
		}
	}
}

// sortLeafRuns puts every leaf run of the snapshot in (distance, id) order
// for the tree the last dijkstra(s) left in the scratch. src's position in
// its neighbor's run is irrelevant — it is nobody's child — and unchecked.
func (e *Evaluator) sortLeafRuns(s int) {
	if e.csr.tieFree {
		return
	}
	dist := e.dj.dist
	ls, lv := e.csr.leafStart, e.csr.leafAdj
	for _, u := range e.csr.hubs {
		run := lv[ls[u]:ls[u+1]]
		prev := int32(-1)
		for _, v := range run {
			if v == int32(s) {
				continue
			}
			if prev >= 0 && !before(dist, prev, v) {
				sortByDist(run, dist)
				break
			}
			prev = v
		}
	}
}

// pushTree is pushLoads for the tree the last dijkstra(s) left in the
// scratch, which must have reached every node. It walks the popped nodes
// backwards like pushLoads and folds each leaf run into the reverse walk
// at the place the leaves hold among their siblings in (distance, id)
// order: before a popped node c is folded into its parent p, the leaves of
// p that sort above c; once the walk reaches p itself, the rest of them.
// Every node's children are thus folded in exactly pushLoads' order, so
// the loads are bit-identical to a walk over a full finalization order.
func (e *Evaluator) pushTree(s int) {
	n := e.n
	parent, popped := e.dj.parent, e.dj.order[:e.dj.popped]
	if len(e.csr.leaves) == 0 {
		e.pushLoads(s, parent, popped)
		return
	}
	e.sortLeafRuns(s)
	dist, load, acc := e.dj.dist, e.dj.load, e.dj.acc
	ls, lv, rem := e.csr.leafStart, e.csr.leafAdj, e.dj.cursor
	copy(rem, e.csr.leafCount) // rem[u]: u's leaves not yet folded, from the top of its run
	copy(acc[s+1:n], e.dflat[s*n+s+1:(s+1)*n])
	clear(acc[:s+1])
	src := int32(s)
	for k := len(popped) - 1; k >= 0; k-- {
		c := popped[k]
		if r := rem[c]; r > 0 {
			run := lv[ls[c] : ls[c]+r]
			for i := r - 1; i >= 0; i-- {
				if v := run[i]; v != src {
					fold(load, acc, n, v, c)
				}
			}
		}
		if k == 0 {
			break // c == src
		}
		p := parent[c]
		if r := rem[p]; r > 0 {
			run := lv[ls[p] : ls[p]+r]
			for ; r > 0; r-- {
				v := run[r-1]
				if v == src {
					continue
				}
				if before(dist, v, c) {
					break
				}
				fold(load, acc, n, v, p)
			}
			rem[p] = r
		}
		fold(load, acc, n, c, p)
	}
}

// fold adds node v's accumulated demand to its tree link {v, p} and to its
// parent p's accumulator.
func fold(load, acc []float64, n int, v, p int32) {
	a := acc[v]
	if a == 0 {
		return
	}
	load[int(v)*n+int(p)] += a
	load[int(p)*n+int(v)] += a
	acc[p] += a
}

// fullOrder writes into dst the finalization order of every node the last
// dijkstra(s) reached, in the form pushLoads replays: each node after its
// parent and siblings in (distance, id) order, as in the order of a search
// that pushed every node through the heap. It merges the leaf runs into
// the pop order: before each popped node c, the leaves of c's parent that
// sort below c; after the last, every leaf still pending.
func (e *Evaluator) fullOrder(s int, dst []int32) {
	popped := e.dj.order[:e.dj.popped]
	if len(e.csr.leaves) == 0 {
		copy(dst, popped)
		return
	}
	e.sortLeafRuns(s)
	dist, parent := e.dj.dist, e.dj.parent
	ls, lv, cur := e.csr.leafStart, e.csr.leafAdj, e.dj.cursor
	copy(cur, ls[:e.n]) // cur[u]: start of u's leaves not yet placed
	src := int32(s)
	count := 0
	for _, c := range popped {
		if p := parent[c]; p >= 0 {
			j := cur[p]
			for ; j < ls[p+1]; j++ {
				v := lv[j]
				if v == src {
					continue
				}
				if !before(dist, v, c) {
					break
				}
				dst[count] = v
				count++
			}
			cur[p] = j
		}
		dst[count] = c
		count++
	}
	for _, c := range popped {
		for _, v := range lv[cur[c]:ls[c+1]] {
			if parent[v] == c {
				dst[count] = v
				count++
			}
		}
	}
}

// sortByDist sorts a row or leaf run by (distance, id): in place by
// insertion for the short rows of typical topologies, by pdqsort for the
// long rows of a big star or a dense graph.
func sortByDist(run []int32, dist []float64) {
	if len(run) > 16 {
		slices.SortFunc(run, func(a, b int32) int {
			if before(dist, a, b) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(run); i++ {
		v := run[i]
		j := i
		for ; j > 0 && before(dist, v, run[j-1]); j-- {
			run[j] = run[j-1]
		}
		run[j] = v
	}
}
