package cost

// Fuzz targets for the evaluator's equivalence guarantees. Both targets
// decode arbitrary bytes into a context + graph(s) and assert the
// bit-identity contracts that the rest of the system (memo cache, GA
// determinism, golden fixtures) depends on:
//
//   FuzzDijkstraEquivalence — evaluator routing and loads vs the reference
//   FuzzEvaluateDelta       — incremental delta walk vs fresh full sweeps
//   FuzzHubTable            — hub-level estimates vs exact Cost, within the
//                             documented rounding bound
//
// Seed corpora live in testdata/fuzz/<FuzzName>/. CI runs each target for a
// short -fuzztime as a smoke job (make fuzz); run locally with e.g.
//
//	go test ./internal/cost -run '^$' -fuzz FuzzEvaluateDelta -fuzztime 30s

import (
	"math"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/traffic"
)

// fuzzContext derives a deterministic context from a seed, sized 2..33.
func fuzzContext(t testing.TB, seed int64, sizeByte byte, opts Options) *Evaluator {
	n := 2 + int(sizeByte%32)
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewUniform().Sample(n, rng)
	pops := traffic.NewExponential().Sample(n, rng)
	e, err := NewEvaluatorOptions(geom.DistanceMatrix(pts), traffic.Gravity(pops, 1),
		Params{K0: 10, K1: 1, K2: 3e-4, K3: 12}, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCacheLimit(0)
	return e
}

// fuzzGraph decodes data as a bitmask over the upper-triangle pairs of an
// n-node graph (bit k of byte k/8 = pair k in lexicographic order).
func fuzzGraph(n int, data []byte) *graph.Graph {
	g := graph.New(n)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if k/8 < len(data) && data[k/8]&(1<<(k%8)) != 0 {
				g.AddEdge(i, j)
			}
			k++
		}
	}
	return g
}

// FuzzDijkstraEquivalence: for any context and any graph — connected or not
// — the evaluator's routing must equal the reference Dijkstra's distances
// and tie-broken parents bit for bit, its loads and cost the reference
// loads and cost, and Cost must equal Evaluate's total.
func FuzzDijkstraEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{8, 0xff, 0x3c, 0x81})
	f.Add(int64(42), []byte{20, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80})
	f.Add(int64(-7), []byte{31})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) == 0 {
			return
		}
		e := fuzzContext(t, seed, data[0], Options{})
		g := fuzzGraph(e.N(), data[1:])
		matchesReferenceLoads(t, "fuzz", e, g)
		ev := e.Evaluate(g)
		if c := e.Cost(g); c != ev.Total {
			t.Fatalf("Cost %v != Evaluate total %v", c, ev.Total)
		}
	})
}

// FuzzEvaluateDelta: an arbitrary walk of edge toggles evaluated
// incrementally must match fresh full evaluations bit for bit at every
// step, through disconnections, re-connections and fallbacks.
func FuzzEvaluateDelta(f *testing.F) {
	f.Add(int64(1), []byte{10, 0xff, 0xa5}, []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(9), []byte{16, 0x81, 0x42, 0x24, 0x18}, []byte{7, 7, 1, 30, 12, 0, 0})
	f.Add(int64(-3), []byte{6, 0x3f}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, seed int64, base []byte, toggles []byte) {
		if len(base) == 0 || len(toggles) > 64 {
			return
		}
		ev := fuzzContext(t, seed, base[0], Options{Delta: ForceOn})
		ref := fuzzContext(t, seed, base[0], Options{Delta: ForceOff})
		n := ev.N()
		g := fuzzGraph(n, base[1:])
		g.Connect(ev.Dist())
		ev.Evaluate(g)
		pairs := n * (n - 1) / 2
		for step := range toggles {
			// Decode pair indices; group consecutive toggles into edits of
			// 1..3 edges so multi-edge deltas get exercised too.
			child := g.Clone()
			edits := 1 + (step % 3)
			for e := 0; e < edits && step+e < len(toggles); e++ {
				k := int(toggles[(step+e)%len(toggles)]) % pairs
				i, j := pairFromIndex(n, k)
				child.SetEdge(i, j, !child.HasEdge(i, j))
			}
			changed := g.Diff(child, nil)
			// CostDelta first (non-advancing: the retained base stays g),
			// then EvaluateDelta (advances the base to child) — so the walk
			// stays incremental end to end.
			if got, want := ev.CostDelta(g, child, changed), ref.Cost(child); got != want {
				t.Fatalf("step %d: CostDelta %v != Cost %v", step, got, want)
			}
			got := ev.EvaluateDelta(child, changed)
			want := ref.Evaluate(child)
			if got.Total != want.Total || got.Connected != want.Connected {
				t.Fatalf("step %d: delta %v/%v != full %v/%v",
					step, got.Total, got.Connected, want.Total, want.Connected)
			}
			for i := range got.Capacities {
				if got.Capacities[i] != want.Capacities[i] {
					t.Fatalf("step %d: capacity %d differs", step, i)
				}
			}
			g = child
		}
	})
}

// FuzzHubTable: for any context, hub set (in any order) and hub links, the
// HubTable's estimate and its add-one-link estimates must price the
// hub-and-leaves graph within estimateRelErr of the exact Cost, +Inf exactly
// when it is disconnected, and EstimateAddLink must equal AddLink followed
// by Estimate bit for bit. data[0] sizes the context, the next bytes mark
// the hubs (one bit per PoP), rot rotates their order, and links marks hub
// pairs to link, then the pairs added one at a time.
func FuzzHubTable(f *testing.F) {
	f.Add(int64(1), []byte{10, 0x25, 0x01}, uint8(0), []byte{0x0f, 0x30})
	f.Add(int64(7), []byte{24, 0xff, 0xff, 0xff, 0xff}, uint8(3), []byte{0x81, 0x42, 0x24, 0x18})
	f.Add(int64(-2), []byte{0, 0x03}, uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, data []byte, rot uint8, links []byte) {
		if len(data) == 0 {
			return
		}
		e := fuzzContext(t, seed, data[0], Options{})
		n := e.N()
		var hubs []int
		for v := 0; v < n; v++ {
			if k := 1 + v/8; k < len(data) && data[k]&(1<<(v%8)) != 0 {
				hubs = append(hubs, v)
			}
		}
		if len(hubs) == 0 {
			hubs = []int{0}
		}
		r := int(rot) % len(hubs)
		hubs = append(hubs[r:], hubs[:r]...)
		bit := func(k int) bool { return k/8 < len(links) && links[k/8]&(1<<(k%8)) != 0 }
		var edges, later [][2]int
		k := 0
		for i := range hubs {
			for j := i + 1; j < len(hubs); j++ {
				if pair := [2]int{hubs[i], hubs[j]}; bit(k) {
					edges = append(edges, pair)
				} else if bit(k + 1) {
					later = append(later, pair)
				}
				k += 2
			}
		}
		g := hubGraph(e, hubs, edges)
		tab := e.NewHubTable()
		tab.Fill(hubs, edges)
		est, ok := tab.Estimate()
		checkEstimate(t, "fill", e, g, est, ok)
		for _, pair := range later {
			est, ok := tab.EstimateAddLink(pair[0], pair[1])
			g.AddEdge(pair[0], pair[1])
			checkEstimate(t, "add-link estimate", e, g, est, ok)
			tab.AddLink(pair[0], pair[1])
			if after, afterOK := tab.Estimate(); math.Float64bits(after) != math.Float64bits(est) || afterOK != ok {
				t.Fatalf("EstimateAddLink %v (%v), AddLink+Estimate %v (%v)", est, ok, after, afterOK)
			}
		}
	})
}

// pairFromIndex maps a lexicographic pair index back to (i, j), i < j.
func pairFromIndex(n, k int) (int, int) {
	for i := 0; i < n; i++ {
		row := n - 1 - i
		if k < row {
			return i, i + 1 + k
		}
		k -= row
	}
	panic("pair index out of range")
}
