package cost

import "github.com/networksynth/cold/internal/graph"

// Shared shortest-path trees for the cost-only sweep (computeCost, behind
// Cost and CostUncached). COLD's link costs make good candidates sparse:
// most PoPs sit in trees hanging off a small 2-core, and outside the 2-core
// every path is unique. Peeling the graph to its 2-core assigns every
// pendant node (one peeled away) the root its tree hangs from: a 2-core
// node, or, when the whole graph is a tree, the last node peeled. Every
// path from a pendant source s leaves its tree through the root r, so s's
// shortest-path tree is r's tree with the path s → r reversed. The sweep
// computes one tree per root, on first use, and folds every pendant source
// over it:
//
//   - a 2-core node without pendant trees runs dijkstra + pushTree;
//   - a root runs pushLoads over its own tree's preorder;
//   - a pendant source copies its root's parents, flips the path to the
//     root and runs pushLoads over an order spliced from preorder blocks
//     (pushRerooted);
//   - when the snapshot is not tie-free, or a 2-core root's re-rooting
//     certificate fails, the affected sources fall back to dijkstra +
//     pushTree.
//
// The loads depend only on the parents and on each node's children being
// folded in (distance, id) order (see the package comment). Tie-freedom
// (fillLeafRuns) makes that the sorted-row order from every source, so a
// preorder that visits children in sorted-row order qualifies, and so does
// any splice of its blocks that keeps each node after its parent and each
// node's children in row order. The certificate (certify) guarantees that
// a search from a pendant source, whose distances carry the offset of the
// path to the root, picks exactly the root's parents inside the 2-core.
// Sources are still visited in ascending order, so every link's load
// receives its contributions in the same order as the per-source sweep,
// and loads and costs stay bit-identical to it. DESIGN.md ("Shared trees")
// derives both bounds.

// sharedTrees is the per-Evaluator state of the shared-tree sweep.
type sharedTrees struct {
	// Peel of the current snapshot. deg is each node's degree left after
	// peeling — at least 2 exactly for 2-core nodes, 0 for peeled nodes
	// and for the last node of a tree component. queue is the peel order,
	// rootOf a peeled node's root (the node itself otherwise), and slotOf
	// the tree slot of a root (-1 for nodes with no pendant tree).
	deg, queue, rootOf, slotOf []int32

	trees []*rootTree // tree slots, grown on demand to the high-water root count
	used  int         // slots assigned in the current sweep

	par   []int32 // re-rooted parents of the current pendant source
	stack []int32 // DFS stack of buildTree

	counts sweepCounts
}

// rootTree is one root's shortest-path tree: its parents, its preorder
// (children in sorted-row order), each node's position in the preorder
// and subtree size, so that pre[pos[v]:pos[v]+size[v]] is v's subtree.
type rootTree struct {
	built     bool // built in the current sweep
	certified bool // pendant sources may re-root it (see certify)
	parent    []int32
	pre       []int32
	pos       []int32
	size      []int32
}

// sweepCounts are package-internal dispatch counts of the shared-tree
// sweep, cumulative per Evaluator. Tests read them to check which path
// each source took; they are not part of Stats.
type sweepCounts struct {
	plain        int // 2-core sources without pendant trees: dijkstra + pushTree
	roots        int // roots: pushLoads over their own preorder
	rerooted     int // pendant sources folded over their root's tree
	tieFallback  int // sources routed alone because the snapshot is not tie-free
	certFallback int // pendant sources routed alone because their root's certificate failed
	dfsTrees     int // tree-graph roots built by DFS alone
	searchTrees  int // 2-core roots built by dijkstra + DFS
}

func (sh *sharedTrees) init(n int) {
	sh.deg = make([]int32, n)
	sh.queue = make([]int32, 0, n)
	sh.rootOf = make([]int32, n)
	sh.slotOf = make([]int32, n)
	sh.par = make([]int32, n)
	sh.stack = make([]int32, 0, n)
}

// sweepShared is routeAndLoad for the cost-only sweep: it fills e.dj.load
// for g, bit-identical to routeAndLoad(g, nil, false), sharing one
// shortest-path tree among every pendant source of a root. Returns false
// if g is disconnected.
func (e *Evaluator) sweepShared(g *graph.Graph) bool {
	e.counters.fullSweeps.Inc()
	n := e.n
	e.fillCSR(g)
	clear(e.dj.load)
	sh := &e.sh
	if !e.csr.tieFree {
		sh.counts.tieFallback += n
		for s := 0; s < n; s++ {
			if !e.pushSearched(s) {
				return false
			}
		}
		return true
	}
	e.peel()
	for s := 0; s < n; s++ {
		r := sh.rootOf[s]
		slot := sh.slotOf[r]
		if slot < 0 {
			sh.counts.plain++
			if !e.pushSearched(s) {
				return false
			}
			continue
		}
		t := sh.trees[slot]
		if !t.built && !e.buildTree(t, r) {
			return false
		}
		switch {
		case r == int32(s):
			sh.counts.roots++
			e.pushLoads(s, t.parent, t.pre)
		case t.certified:
			sh.counts.rerooted++
			e.pushRerooted(s, t)
		default:
			sh.counts.certFallback++
			if !e.pushSearched(s) {
				return false
			}
		}
	}
	return true
}

// pushSearched is the per-source step of routeAndLoad: dijkstra from s,
// then pushTree. Returns false if s does not reach every node.
func (e *Evaluator) pushSearched(s int) bool {
	if e.dijkstra(s) != e.n {
		return false
	}
	e.pushTree(s)
	return true
}

// peel strips the snapshot to its 2-core by repeatedly removing degree-1
// nodes, records each removed node's root and assigns a tree slot to every
// root that has pendant nodes. Isolated nodes are never removed and get no
// slot; with n > 1 their plain search fails to reach every node.
func (e *Evaluator) peel() {
	sh := &e.sh
	rowStart, cols := e.csr.rowStart, e.csr.cols
	deg, rootOf, slotOf := sh.deg, sh.rootOf, sh.slotOf
	queue := sh.queue[:0]
	for v := 0; v < e.n; v++ {
		deg[v] = rowStart[v+1] - rowStart[v]
		rootOf[v] = int32(v)
		slotOf[v] = -1
		if deg[v] == 1 {
			queue = append(queue, int32(v))
		}
	}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		if deg[v] == 0 {
			continue // the last node of a tree component: a root
		}
		u := int32(-1)
		for k := rowStart[v]; k < rowStart[v+1]; k++ {
			if deg[cols[k]] > 0 {
				u = cols[k] // v's one neighbor not yet removed
				break
			}
		}
		deg[v] = 0
		rootOf[v] = u // resolved to u's root below
		if deg[u]--; deg[u] == 1 {
			queue = append(queue, u)
		}
	}
	sh.queue = queue
	sh.used = 0
	for i := len(queue) - 1; i >= 0; i-- { // u is peeled after v, or never
		v := queue[i]
		if r := rootOf[rootOf[v]]; r != v {
			rootOf[v] = r
			if slotOf[r] < 0 {
				slotOf[r] = int32(sh.used)
				sh.used++
			}
		}
	}
	for len(sh.trees) < sh.used {
		n := e.n
		buf := make([]int32, 4*n)
		sh.trees = append(sh.trees, &rootTree{parent: buf[:n:n], pre: buf[n : 2*n : 2*n],
			pos: buf[2*n : 3*n : 3*n], size: buf[3*n:]})
	}
	for _, t := range sh.trees[:sh.used] {
		t.built = false
	}
}

// buildTree computes root r's tree into t: its parents — by dijkstra for a
// 2-core root, by the DFS alone for the root of a tree graph, whose paths
// are unique — then the preorder visiting each node's children in
// sorted-row order, the subtree sizes and, for a 2-core root, the
// re-rooting certificate. Returns false if the tree misses a node.
func (e *Evaluator) buildTree(t *rootTree, r int32) bool {
	n := e.n
	sh := &e.sh
	rowStart, sorted := e.csr.rowStart, e.csr.sorted
	parent, pre, pos, size := t.parent, t.pre, t.pos, t.size
	core := sh.deg[r] > 0
	if core {
		sh.counts.searchTrees++
		if e.dijkstra(int(r)) != n {
			return false
		}
		copy(parent, e.dj.parent)
	} else {
		sh.counts.dfsTrees++
		parent[r] = -1
	}
	stack := append(sh.stack[:0], r)
	count := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pre[count] = u
		pos[u] = int32(count)
		count++
		row := sorted[rowStart[u]:rowStart[u+1]]
		for k := len(row) - 1; k >= 0; k-- { // pushed in reverse: popped in row order
			c := row[k]
			if core {
				if parent[c] != u {
					continue
				}
			} else {
				if c == parent[u] {
					continue
				}
				parent[c] = u
			}
			stack = append(stack, c)
		}
	}
	sh.stack = stack
	if count != n {
		return false // a tree graph that is only one component of a forest
	}
	for _, v := range pre {
		size[v] = 1
	}
	for i := n - 1; i > 0; i-- {
		v := pre[i]
		size[parent[v]] += size[v]
	}
	t.certified = !core || e.certify(t, r)
	t.built = true
	return true
}

// certify checks the re-rooting certificate of a 2-core root r whose
// dijkstra(r) tables are still in the scratch: for every 2-core node x ≠ r
// and every 2-core neighbor y of x linked to it off the tree (neither x's
// parent nor its child), dist[y] + ℓ(y,x) − dist[x] must exceed
// (n+1)·M·2⁻⁵⁰. Each such slack then dwarfs the rounding of any path sum,
// so a search from a pendant source, entering the 2-core through r at an
// offset, settles every 2-core node through the same parent (DESIGN.md,
// "Shared trees"). Tree links need no slack, and nodes outside the 2-core
// none either: their paths are unique.
func (e *Evaluator) certify(t *rootTree, r int32) bool {
	n := e.n
	rowStart, cols, weights := e.csr.rowStart, e.csr.cols, e.csr.weights
	dist, parent, deg := e.dj.dist, t.parent, e.sh.deg
	margin := float64(n+1) * e.csr.total * 0x1p-50
	for x := int32(0); x < int32(n); x++ {
		if deg[x] == 0 || x == r {
			continue
		}
		for k := rowStart[x]; k < rowStart[x+1]; k++ {
			y := cols[k]
			if deg[y] == 0 || y == parent[x] || parent[y] == x {
				continue
			}
			if dist[y]+weights[k]-dist[x] <= margin {
				return false
			}
		}
	}
	return true
}

// pushRerooted is pushLoads for a pendant source s over its root's tree t,
// re-rooted along the path s = p0, p1, …, pk = r: each path node's parent
// becomes its predecessor on the path, and the finalization order is
// spliced from preorder blocks of t — s and its own subtree, then each
// path node followed by its children's blocks (p_{i-1}'s block dropped,
// p_{i+1} itself spliced in at its sorted-row rank), and last the root's
// child blocks minus the one the path came through. Every node then comes
// after its new parent and every node's children appear in sorted-row
// order, except s's, whose order is free: acc[s] is never folded into a
// link.
func (e *Evaluator) pushRerooted(s int, t *rootTree) {
	parent, pre, pos, size := t.parent, t.pre, t.pos, t.size
	par, order := e.sh.par, e.dj.order
	copy(par, parent)
	src := int32(s)
	par[src] = -1
	count := copy(order, pre[pos[src]:pos[src]+size[src]])
	prev, u := src, parent[src]
	order[count] = u
	count++
	for {
		next := parent[u]
		par[u] = prev
		lo, hi := pos[u]+1, pos[u]+size[u]
		skipLo, skipHi := pos[prev], pos[prev]+size[prev]
		if next < 0 { // u is the root
			count += copy(order[count:], pre[lo:skipLo])
			count += copy(order[count:], pre[skipHi:hi])
			break
		}
		row := e.dist[u]
		placed := false
		for j := lo; j < hi; {
			if j == skipLo {
				j = skipHi
				continue
			}
			c := pre[j]
			if !placed && (row[next] < row[c] || row[next] == row[c] && next < c) {
				order[count] = next
				count++
				placed = true
			}
			count += copy(order[count:], pre[j:j+size[c]])
			j += size[c]
		}
		if !placed {
			order[count] = next
			count++
		}
		prev, u = u, next
	}
	e.pushLoads(s, par, order[:count])
}
