package cost

import (
	"fmt"
	"math"

	"github.com/networksynth/cold/internal/graph"
)

// The incremental ("delta") evaluation path.
//
// A full evaluation runs Dijkstra from all n sources. The GA's mutation
// offspring differ from a parent by only a few links, and most of those
// edits leave most shortest-path trees untouched. The Evaluator therefore
// retains a small cache of *bases* — fully routed graphs plus every
// source's distance/parent/finalization-order tables — and, for a child
// that differs from a retained base by a small changed-edge set, re-runs
// Dijkstra only from the sources whose tree can actually change:
//
//   - a removed edge {i,j} affects source s only if it is a tree edge of
//     s's shortest-path tree (parent_s[i] == j or parent_s[j] == i);
//   - an added edge {i,j} of length ℓ affects source s only if it creates a
//     path at least as short as an existing one on either endpoint:
//     dist_s[i]+ℓ <= dist_s[j] or dist_s[j]+ℓ <= dist_s[i]. The <= (rather
//     than <) matters: an equal-length alternative can flip a
//     deterministic tie toward a different parent, so ties must recompute.
//
// Sources failing every test provably keep identical distances, parents
// and finalization order, so their tables — and their floating-point load
// contributions, re-accumulated in the same source order through
// pushLoads — are reused bit-for-bit. The result is indistinguishable from
// a full sweep: same costs, same loads, same routing, to the last bit (the
// equivalence suite and fuzz targets enforce exactly this).
//
// Up to Options.MaxBases bases are retained, evicted least-recently-used.
// Both CostDelta and EvaluateDelta pick the retained base *nearest* the
// requested graph by edge-set difference (graph.DiffCount) and compute the
// actual diff themselves, so the caller's changed list is only a budget
// hint: crossover offspring can delta against whichever parent is closer,
// and elite parents stay primed across generations without the caller
// sequencing same-parent siblings together.
//
// When more than half the sources are affected, or the edit exceeds
// Options.DeltaEdgeBudget, the full sweep is cheaper and the path falls
// back. Disconnection never reaches the incremental path: removing a
// bridge puts the bridge on every source's tree, marking all sources
// affected and triggering the fallback.

// baseEntry is one retained base: a routed graph and its flattened n×n
// per-source Dijkstra tables.
type baseEntry struct {
	g      *graph.Graph // clone of the base graph
	hash   uint64       // g.Hash(), for a cheap duplicate test
	dist   []float64    // n×n: dist[s*n+v]
	parent []int32      // n×n
	order  []int32      // n×n finalization order per source
}

// copyFromScratch stores source s's tables from the Dijkstra scratch.
func (b *baseEntry) copyFromScratch(e *Evaluator, s int) {
	n := e.n
	copy(b.dist[s*n:(s+1)*n], e.dj.dist[:n])
	copy(b.parent[s*n:(s+1)*n], e.dj.parent[:n])
	e.fullOrder(s, b.order[s*n:(s+1)*n])
}

// deltaState is the retained base cache of the incremental path: up to
// Evaluator.maxBases finished entries ordered most-recently-used first,
// plus at most one entry being filled by a recording sweep (pending) and
// one recycled entry whose tables await reuse (spare). Tables are only
// allocated when the delta path actually runs, so evaluators that never
// touch it pay no n² memory.
type deltaState struct {
	bases   []*baseEntry // finished bases, most-recently-used first
	pending *baseEntry   // entry a recording sweep is filling
	spare   *baseEntry   // evicted/aborted entry kept to avoid reallocation
}

// ensure prepares the pending entry for a recording sweep. Retained bases
// stay valid throughout — the sweep writes only into pending.
func (st *deltaState) ensure(n int) {
	if st.pending != nil {
		return
	}
	if st.spare != nil {
		st.pending, st.spare = st.spare, nil
		return
	}
	st.pending = &baseEntry{
		dist:   make([]float64, n*n),
		parent: make([]int32, n*n),
		order:  make([]int32, n*n),
	}
}

// copyFromScratch stores source s's tables into the pending entry.
func (st *deltaState) copyFromScratch(e *Evaluator, s int) {
	st.pending.copyFromScratch(e, s)
}

// finishRecord completes a recording sweep over g: on success the pending
// entry becomes the most-recent base, on failure (disconnected graphs
// cannot seed increments) its tables are recycled.
func (st *deltaState) finishRecord(e *Evaluator, g *graph.Graph, connected bool) {
	p := st.pending
	if p == nil {
		return
	}
	st.pending = nil
	if !connected {
		st.spare = p
		return
	}
	p.g = g.Clone()
	p.hash = p.g.Hash()
	st.insert(e, p)
}

// insert pushes a finished entry to the front of the LRU order, dropping
// any older entry for the same graph and evicting past Evaluator.maxBases.
func (st *deltaState) insert(e *Evaluator, ent *baseEntry) {
	for i, b := range st.bases {
		if b.hash == ent.hash && b.g.Equal(ent.g) {
			st.bases = append(st.bases[:i], st.bases[i+1:]...)
			st.spare = b
			break
		}
	}
	st.bases = append(st.bases, nil)
	copy(st.bases[1:], st.bases)
	st.bases[0] = ent
	for len(st.bases) > e.maxBases {
		last := len(st.bases) - 1
		st.spare = st.bases[last]
		st.bases[last] = nil
		st.bases = st.bases[:last]
		e.counters.baseEvictions.Inc()
	}
}

// touch moves the entry at index i to the front of the LRU order and
// returns it.
func (st *deltaState) touch(i int) *baseEntry {
	ent := st.bases[i]
	copy(st.bases[1:i+1], st.bases[:i])
	st.bases[0] = ent
	return ent
}

// drop removes ent from the cache (a half-overwritten advance must not
// survive as a base) and recycles its tables.
func (st *deltaState) drop(ent *baseEntry) {
	for i, b := range st.bases {
		if b == ent {
			st.bases = append(st.bases[:i], st.bases[i+1:]...)
			st.spare = ent
			return
		}
	}
}

// nearest returns the index of the retained base closest to g by edge-set
// difference (graph.DiffCount), restricted to bases within budget changed
// edges, or -1 when none qualifies. Ties go to the more recently used
// base. The scan is O(bases · n²/64) — bitset XOR popcounts, far cheaper
// than a single Dijkstra.
func (st *deltaState) nearest(g *graph.Graph, budget int) (int, int) {
	best, bestD := -1, budget+1
	for i, b := range st.bases {
		if d := b.g.DiffCount(g); d < bestD {
			best, bestD = i, d
			if d == 0 {
				break
			}
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestD
}

// Options returns the evaluator's resolved evaluation options.
func (e *Evaluator) Options() Options { return e.opts }

// DeltaEnabled reports whether the incremental evaluation path is live.
// When false, CostDelta and EvaluateDelta silently run full sweeps, so
// callers can skip the bookkeeping (diffing graphs) entirely.
func (e *Evaluator) DeltaEnabled() bool { return e.deltaOn }

// DeltaEdgeBudget returns the resolved changed-edge budget: edits larger
// than this always take the full sweep, so callers tracking lineage can
// stop diffing once a child drifts past it.
func (e *Evaluator) DeltaEdgeBudget() int { return e.deltaBudget }

// MaxBases returns the resolved retained-base cap.
func (e *Evaluator) MaxBases() int { return e.maxBases }

// HasBaseNear reports whether a retained base lies within the delta edge
// budget of g, i.e. whether a CostDelta call for g would run incrementally
// without a priming sweep. Callers batching evaluations (the GA) use it to
// route lone offspring of an already-primed parent through the delta path.
func (e *Evaluator) HasBaseNear(g *graph.Graph) bool {
	if !e.deltaOn {
		return false
	}
	i, _ := e.delta.nearest(g, e.deltaBudget)
	return i >= 0
}

// primeProbation is the number of in-budget delta attempts an evaluator
// observes before the adaptive prime-on-miss policy can turn priming off.
const primeProbation = 32

// primeWorthwhile reports whether a base miss in CostDelta should spend a
// full sweep priming the caller's base. A priming sweep only pays when
// later in-budget requests against that base actually run incrementally;
// on workloads where nearly every attempt declines through the affected-
// sources test (dense edits on small graphs), the prime is pure overhead
// on top of the full sweep the child needs anyway. The policy is
// optimistic for the first primeProbation attempts, then requires that at
// least a third of attempts succeeded. Attempts keep flowing through
// bases recorded by Evaluate sweeps even while priming is off, so the
// cumulative ratio can recover if the workload shifts. Either branch
// returns bit-identical values; only speed is at stake.
func (e *Evaluator) primeWorthwhile() bool {
	return e.deltaTried < primeProbation || 3*e.deltaWon >= e.deltaTried
}

// primeDelta records base as a retained delta base by running Dijkstra
// from every source (no load accumulation). Returns false — retaining
// nothing — if base is disconnected.
func (e *Evaluator) primeDelta(base *graph.Graph) bool {
	e.counters.fullSweeps.Inc()
	n := e.n
	e.fillCSR(base)
	e.delta.ensure(n)
	for s := 0; s < n; s++ {
		if e.dijkstra(s) != n {
			e.delta.finishRecord(e, base, false)
			return false
		}
		e.delta.copyFromScratch(e, s)
	}
	e.delta.finishRecord(e, base, true)
	return true
}

// deltaAffected marks in e.dj.affected the sources whose shortest-path
// tree can change when ent's graph becomes g (differing by changed), and
// returns their count. changed edges present in g are additions, absent
// ones removals; the tests run against the base tables, which is sound for
// the whole set because unaffected sources keep base tables at every
// intermediate step.
func (e *Evaluator) deltaAffected(ent *baseEntry, g *graph.Graph, changed []graph.Edge) int {
	n := e.n
	if e.dj.affected == nil {
		e.dj.affected = make([]bool, n)
	}
	aff := e.dj.affected
	count := 0
	for s := 0; s < n; s++ {
		drow := ent.dist[s*n : (s+1)*n]
		prow := ent.parent[s*n : (s+1)*n]
		hit := false
		for _, c := range changed {
			if g.HasEdge(c.I, c.J) {
				// Added edge: affected when it offers an equal-or-shorter
				// path to either endpoint.
				l := e.dist[c.I][c.J]
				if drow[c.I]+l <= drow[c.J] || drow[c.J]+l <= drow[c.I] {
					hit = true
					break
				}
			} else if prow[c.I] == int32(c.J) || prow[c.J] == int32(c.I) {
				// Removed tree edge.
				hit = true
				break
			}
		}
		aff[s] = hit
		if hit {
			count++
		}
	}
	return count
}

// evalDelta fills e.dj.load for g by reusing ent's trees for unaffected
// sources and re-running Dijkstra for affected ones, in one ascending-
// source pass so the floating-point accumulation order matches
// routeAndLoad exactly. With advance set, recomputed tables are written
// back into ent and ent is re-based on g (becoming the most-recent base).
//
// Returns ok=false when the path declines (too many affected sources); the
// cache is then left untouched and the caller must run a full sweep.
// Returns connected=false if a re-routed source cannot reach every node —
// in practice unreachable (disconnection marks all sources affected, which
// declines first), but handled defensively by dropping the half-updated
// entry.
func (e *Evaluator) evalDelta(ent *baseEntry, g *graph.Graph, changed []graph.Edge, advance bool) (connected, ok bool) {
	n := e.n
	if 2*e.deltaAffected(ent, g, changed) > n {
		return false, false
	}
	// One CSR snapshot of g serves every re-routed source and the final
	// sumCost; unaffected sources replay the base's recorded tables (always
	// fully finalized — only connected sweeps are retained).
	e.fillCSR(g)
	load := e.dj.load
	for i := range load {
		load[i] = 0
	}
	aff := e.dj.affected
	for s := 0; s < n; s++ {
		if aff[s] {
			reached := e.dijkstra(s)
			if reached != n {
				if advance {
					e.delta.drop(ent)
				}
				return false, true
			}
			e.pushTree(s)
			if advance {
				ent.copyFromScratch(e, s)
			}
		} else {
			e.pushLoads(s, ent.parent[s*n:(s+1)*n], ent.order[s*n:(s+1)*n])
		}
	}
	if advance {
		ent.g = g.Clone()
		ent.hash = ent.g.Hash()
		// Re-basing may have made ent a duplicate of another retained
		// base; keep only the freshly advanced copy.
		for i, b := range e.delta.bases {
			if b != ent && b.hash == ent.hash && b.g.Equal(ent.g) {
				e.delta.bases = append(e.delta.bases[:i], e.delta.bases[i+1:]...)
				e.delta.spare = b
				break
			}
		}
	}
	return true, true
}

// CostDelta returns Cost(g) for a graph derived from base by the changed
// edge set, evaluating incrementally when profitable. It is memoized like
// Cost and returns bit-identical values on every path. The evaluator picks
// the *nearest* retained base to g (which may be base itself, another
// recent parent, or an elite recorded generations ago) and diffs against
// it directly — changed only serves as a cheap budget pre-check. When no
// retained base is close enough, base is primed with one full sweep and
// retained, so a run of siblings mutated from one parent shares that
// sweep — unless the adaptive policy (primeWorthwhile) has observed that
// incremental attempts rarely pay on this workload, in which case the
// miss runs one plain full sweep, matching delta-off cost. Any mismatch
// (delta disabled, edit over budget, stale lineage) falls back to the
// full evaluation.
func (e *Evaluator) CostDelta(base, g *graph.Graph, changed []graph.Edge) float64 {
	if g.N() != e.n {
		panic(fmt.Sprintf("cost: graph has %d nodes, context has %d", g.N(), e.n))
	}
	if !e.deltaOn {
		e.fallback(FallbackDisabled)
		return e.Cost(g)
	}
	if len(changed) == 0 || len(changed) > e.deltaBudget || base.N() != e.n {
		e.fallback(FallbackBudget)
		return e.Cost(g)
	}
	if !e.cache.enabled() {
		e.cache.misses.Add(1)
		return e.costDeltaUncached(base, g)
	}
	h := g.Hash()
	if c, ok := e.cache.lookup(h, g); ok {
		return c
	}
	c := e.costDeltaUncached(base, g)
	e.cache.store(h, g, c)
	return c
}

func (e *Evaluator) costDeltaUncached(base, g *graph.Graph) float64 {
	st := &e.delta
	idx, _ := st.nearest(g, e.deltaBudget)
	if idx < 0 {
		e.counters.baseMisses.Inc()
		if base.DiffCount(g) > e.deltaBudget {
			// The caller's changed list under-reported the distance to
			// base (stale lineage): priming base would not help either.
			e.fallback(FallbackReconcile)
			return e.computeCost(g)
		}
		if !e.primeWorthwhile() {
			e.fallback(FallbackPolicy)
			return e.computeCost(g)
		}
		if !e.primeDelta(base) {
			e.fallback(FallbackBase)
			return e.computeCost(g) // disconnected base cannot seed increments
		}
		idx = 0 // primeDelta retained base as the most-recent entry
	} else {
		e.counters.baseHits.Inc()
	}
	ent := st.touch(idx)
	e.dj.diff = ent.g.Diff(g, e.dj.diff[:0])
	e.observeBaseDist(len(e.dj.diff))
	span := e.startSpan()
	e.deltaTried++
	connected, ok := e.evalDelta(ent, g, e.dj.diff, false)
	if !ok {
		e.fallback(FallbackAffected)
		return e.computeCost(g)
	}
	if !connected {
		e.fallback(FallbackDisconnected)
		e.observe(span)
		return math.Inf(1)
	}
	e.deltaWon++
	e.counters.deltaEvals.Inc()
	c := e.sumCost() // evalDelta left the CSR snapshot holding g
	e.observe(span)
	return c
}

// EvaluateDelta is Evaluate for a graph near a retained base — typically
// the last graph routed by Evaluate or EvaluateDelta — differing by the
// changed edge set. The evaluator picks the nearest retained base, re-
// routes only affected sources, and re-bases that entry on g; otherwise it
// degrades to a full Evaluate. Either way the returned Evaluation is
// bit-identical to Evaluate(g), and on success g is retained as the
// most-recent base, so a random walk of single-link edits stays
// incremental end to end.
func (e *Evaluator) EvaluateDelta(g *graph.Graph, changed []graph.Edge) *Evaluation {
	if g.N() != e.n {
		panic(fmt.Sprintf("cost: graph has %d nodes, context has %d", g.N(), e.n))
	}
	if !e.deltaOn {
		e.fallback(FallbackDisabled)
		return e.Evaluate(g)
	}
	st := &e.delta
	if len(st.bases) == 0 {
		e.fallback(FallbackBase)
		return e.Evaluate(g) // full sweep; records g as a new base
	}
	if len(changed) == 0 || len(changed) > e.deltaBudget {
		e.fallback(FallbackBudget)
		return e.Evaluate(g)
	}
	idx, _ := st.nearest(g, e.deltaBudget)
	if idx < 0 {
		// Every retained base is farther from g than the changed list
		// claimed (stale lineage).
		e.counters.baseMisses.Inc()
		e.fallback(FallbackReconcile)
		return e.Evaluate(g)
	}
	e.counters.baseHits.Inc()
	ent := st.touch(idx)
	e.dj.diff = ent.g.Diff(g, e.dj.diff[:0])
	e.observeBaseDist(len(e.dj.diff))
	span := e.startSpan()
	e.deltaTried++
	connected, ok := e.evalDelta(ent, g, e.dj.diff, true)
	if !ok {
		e.fallback(FallbackAffected)
		return e.Evaluate(g)
	}
	if !connected {
		e.fallback(FallbackDisconnected)
		return e.Evaluate(g) // entry dropped; defensive re-route
	}
	e.deltaWon++
	e.counters.deltaEvals.Inc()
	defer e.observe(span)
	n := e.n
	ev := &Evaluation{Connected: true}
	rt := &Routing{
		PathDist: make([][]float64, n),
		Parent:   make([][]int32, n),
	}
	for s := 0; s < n; s++ {
		rt.PathDist[s] = append([]float64(nil), ent.dist[s*n:(s+1)*n]...)
		rt.Parent[s] = append([]int32(nil), ent.parent[s*n:(s+1)*n]...)
	}
	ev.Routing = rt
	e.fillBreakdown(ev, g)
	return ev
}
