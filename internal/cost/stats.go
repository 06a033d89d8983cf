package cost

import (
	"github.com/networksynth/cold/internal/telemetry"
)

// Evaluator observability: cheap always-on counters (shared across Clones,
// like the memoization cache) plus an optional per-evaluation duration
// histogram attached through SetDurationHistogram. Everything here is
// passive — counters never consume randomness and never influence which
// code path runs, so telemetry on/off cannot change results (the root
// package's identity tests enforce this).

// FallbackReason classifies why an incremental (delta) evaluation ran a
// full sweep instead.
type FallbackReason uint8

// Fallback reasons, in rough order of how early the delta path bails.
const (
	// FallbackDisabled: the delta path is off for this evaluator (context
	// below the threshold or forced off).
	FallbackDisabled FallbackReason = iota
	// FallbackBudget: the changed-edge set was empty or exceeded
	// Options.DeltaEdgeBudget.
	FallbackBudget
	// FallbackBase: no usable base state — the retained base did not match
	// and priming failed (disconnected base).
	FallbackBase
	// FallbackReconcile: the caller's changed-edge list did not reconcile
	// with the actual diff between base and child.
	FallbackReconcile
	// FallbackPolicy: the adaptive prime-on-miss policy declined to spend a
	// priming sweep because incremental attempts rarely succeed on this
	// workload; the request ran one plain full sweep instead.
	FallbackPolicy
	// FallbackAffected: the edit touched too many sources (more than half),
	// so the full sweep was cheaper.
	FallbackAffected
	// FallbackDisconnected: a re-routed source could not reach every node;
	// the delta state was invalidated defensively.
	FallbackDisconnected

	numFallbackReasons
)

// String names the reason as it appears in telemetry events.
func (r FallbackReason) String() string {
	switch r {
	case FallbackDisabled:
		return "disabled"
	case FallbackBudget:
		return "budget"
	case FallbackBase:
		return "base"
	case FallbackReconcile:
		return "reconcile"
	case FallbackPolicy:
		return "policy"
	case FallbackAffected:
		return "affected"
	case FallbackDisconnected:
		return "disconnected"
	default:
		return "unknown"
	}
}

// BaseDistBuckets is the size of the nearest-base distance histogram in
// Stats.BaseDistance: bucket d counts delta evaluations whose chosen base
// differed from the evaluated graph by exactly d edges, with the last
// bucket absorbing every larger distance.
const BaseDistBuckets = 17

// evalCounters are the always-on evaluator counters, shared across an
// Evaluator and all its Clones (one atomic add per event; negligible next
// to the sweeps they count).
type evalCounters struct {
	fullSweeps telemetry.Counter // all-sources Dijkstra sweeps, incl. delta priming
	deltaEvals telemetry.Counter // successful incremental evaluations
	csrBuilds  telemetry.Counter // CSR graph snapshots built (one per routed graph)
	fallbacks  [numFallbackReasons]telemetry.Counter

	// Multi-base routing-table cache (delta.go): a hit means a delta
	// request found a retained base within the edge budget; a miss means
	// none was close enough (CostDelta then primes the caller's base).
	baseHits      telemetry.Counter
	baseMisses    telemetry.Counter
	baseEvictions telemetry.Counter // bases dropped by LRU capacity
	baseDist      [BaseDistBuckets]telemetry.Counter
}

// FallbackCounts breaks down delta-path fallbacks by reason.
type FallbackCounts struct {
	Disabled     uint64
	Budget       uint64
	Base         uint64
	Reconcile    uint64
	Policy       uint64
	Affected     uint64
	Disconnected uint64
}

// Total sums all fallback reasons.
func (f FallbackCounts) Total() uint64 {
	return f.Disabled + f.Budget + f.Base + f.Reconcile + f.Policy + f.Affected + f.Disconnected
}

// Map returns the counts keyed by FallbackReason.String(), omitting zero
// entries — the shape used in JSONL run_end events.
func (f FallbackCounts) Map() map[string]uint64 {
	m := make(map[string]uint64, 7)
	for _, e := range []struct {
		r FallbackReason
		v uint64
	}{
		{FallbackDisabled, f.Disabled},
		{FallbackBudget, f.Budget},
		{FallbackBase, f.Base},
		{FallbackReconcile, f.Reconcile},
		{FallbackPolicy, f.Policy},
		{FallbackAffected, f.Affected},
		{FallbackDisconnected, f.Disconnected},
	} {
		if e.v > 0 {
			m[e.r.String()] = e.v
		}
	}
	return m
}

// Stats is a point-in-time snapshot of an evaluator's counters, summed over
// the evaluator and all its Clones. Counter values are not part of the
// determinism contract: results are bit-identical across parallelism and
// telemetry settings, but hit/miss and sweep counts may differ when workers
// race to evaluate the same topology.
type Stats struct {
	// CacheHits and CacheMisses count memoization lookups.
	CacheHits   uint64
	CacheMisses uint64
	// FullSweeps counts all-sources Dijkstra sweeps, including the sweeps
	// that prime the delta path's base state.
	FullSweeps uint64
	// DeltaEvals counts evaluations served incrementally (re-routing only
	// affected sources).
	DeltaEvals uint64
	// CSRBuilds counts flat-memory CSR graph snapshots built: one per full
	// sweep, priming sweep, incremental evaluation and RouteCost call. The
	// snapshot is pooled per evaluator, so this counts fills, not
	// allocations.
	CSRBuilds uint64
	// Fallbacks counts delta-path requests that ran a full sweep instead,
	// by reason.
	Fallbacks FallbackCounts
	// BaseHits counts delta requests served from a retained base of the
	// multi-base routing-table cache without a priming sweep; BaseMisses
	// counts requests where no retained base was within the edge budget;
	// BaseEvictions counts bases dropped by LRU capacity (Options.MaxBases).
	BaseHits      uint64
	BaseMisses    uint64
	BaseEvictions uint64
	// BaseDistance is a histogram of the edge-set distance between each
	// delta evaluation and its chosen base: BaseDistance[d] counts
	// evaluations at distance exactly d, the last bucket absorbing larger
	// distances. Always BaseDistBuckets long.
	BaseDistance []uint64
	// MaxBases is the resolved retained-base cap of this evaluator.
	MaxBases int
	// Kernel names the shortest-path kernel. It is always "heap", the only
	// one; the field stays so existing readers of the snapshot keep working.
	Kernel string
}

// Stats returns the evaluator's current counter snapshot.
func (e *Evaluator) Stats() Stats {
	hits, misses := e.cache.stats()
	dist := make([]uint64, BaseDistBuckets)
	for i := range dist {
		dist[i] = e.counters.baseDist[i].Load()
	}
	return Stats{
		CacheHits:     hits,
		CacheMisses:   misses,
		FullSweeps:    e.counters.fullSweeps.Load(),
		DeltaEvals:    e.counters.deltaEvals.Load(),
		CSRBuilds:     e.counters.csrBuilds.Load(),
		BaseHits:      e.counters.baseHits.Load(),
		BaseMisses:    e.counters.baseMisses.Load(),
		BaseEvictions: e.counters.baseEvictions.Load(),
		BaseDistance:  dist,
		MaxBases:      e.maxBases,
		Fallbacks: FallbackCounts{
			Disabled:     e.counters.fallbacks[FallbackDisabled].Load(),
			Budget:       e.counters.fallbacks[FallbackBudget].Load(),
			Base:         e.counters.fallbacks[FallbackBase].Load(),
			Reconcile:    e.counters.fallbacks[FallbackReconcile].Load(),
			Policy:       e.counters.fallbacks[FallbackPolicy].Load(),
			Affected:     e.counters.fallbacks[FallbackAffected].Load(),
			Disconnected: e.counters.fallbacks[FallbackDisconnected].Load(),
		},
		Kernel: "heap",
	}
}

// fallback counts one delta-path fallback.
func (e *Evaluator) fallback(r FallbackReason) { e.counters.fallbacks[r].Inc() }

// observeBaseDist records the edge-set distance between a delta evaluation
// and its chosen base in the nearest-base distance histogram.
func (e *Evaluator) observeBaseDist(d int) {
	if d >= BaseDistBuckets {
		d = BaseDistBuckets - 1
	}
	e.counters.baseDist[d].Inc()
}

// SetDurationHistogram attaches a histogram observing the wall time (in
// nanoseconds) of every real evaluation: full sweeps, incremental
// evaluations and Evaluate breakdowns. Memoization hits are not observed —
// the histogram answers "how long does evaluating a topology take", not
// "how long does a lookup take". The histogram is shared with Clones made
// after the call; pass nil to detach. Attaching a histogram changes
// timings only, never results.
func (e *Evaluator) SetDurationHistogram(h *telemetry.Histogram) { e.durHist = h }

// startSpan begins a duration observation when a histogram is attached; the
// zero Span otherwise (observe then ignores it).
func (e *Evaluator) startSpan() telemetry.Span {
	if e.durHist == nil {
		return telemetry.Span{}
	}
	return telemetry.StartSpan()
}

// observe completes a duration observation started by startSpan.
func (e *Evaluator) observe(s telemetry.Span) {
	if e.durHist != nil && s.Running() {
		e.durHist.Observe(float64(s.ElapsedNs()))
	}
}
