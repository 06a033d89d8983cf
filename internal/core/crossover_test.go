package core

// Crossover's draw-skipping link inheritance against the per-pair loop it
// replaced: one weighted parent draw for every PoP pair, in lexicographic
// order. The two must build the same child and leave the offspring's
// random stream in the same state, or every later draw of the offspring —
// and so the whole GA run — would change.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/stats"
)

// pairwiseInherit is the oracle: it draws a parent for every pair and
// copies that parent's link state.
func pairwiseInherit(n int, parents []*graph.Graph, weights []float64, total float64, rng *stats.RNG) *graph.Graph {
	child := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if parents[stats.WeightedIndexTotal(weights, total, rng)].HasEdge(i, j) {
				child.AddEdge(i, j)
			}
		}
	}
	return child
}

// crossoverCase builds a parents from rng: one random graph of the given
// link density and, for each further parent, either a copy of it with
// `edits` toggled pairs (the near-identical parents of a converged
// population) or, when edits < 0, an independent random graph. Weights are
// random, with a zero weight (an infinite-cost parent) now and then.
func crossoverCase(rng *rand.Rand, n, a int, density float64, edits int) ([]*graph.Graph, []float64) {
	random := func() *graph.Graph {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < density {
					g.AddEdge(i, j)
				}
			}
		}
		return g
	}
	parents := []*graph.Graph{random()}
	for len(parents) < a {
		if edits < 0 {
			parents = append(parents, random())
			continue
		}
		p := parents[0].Clone()
		for k := 0; k < edits; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				p.SetEdge(i, j, !p.HasEdge(i, j))
			}
		}
		parents = append(parents, p)
	}
	weights := make([]float64, a)
	for k := range weights {
		weights[k] = rng.Float64()
	}
	if a > 1 && rng.Intn(4) == 0 {
		weights[rng.Intn(a)] = 0
	}
	weights[0] += 1e-3 // keep the total positive
	return parents, weights
}

// checkInherit fails the test unless inheritLinks and the oracle, started
// from the same stream, build equal children and end in the same state.
func checkInherit(t testing.TB, label string, n int, parents []*graph.Graph, weights []float64, seed uint64) {
	t.Helper()
	total := stats.WeightTotal(weights)
	got, want := stats.NewRNG(seed), stats.NewRNG(seed)
	child := inheritLinks(n, parents, weights, total, &got)
	ref := pairwiseInherit(n, parents, weights, total, &want)
	if !child.Equal(ref) { // Equal compares the link counts too
		t.Fatalf("%s: child %v, per-pair draws give %v", label, child, ref)
	}
	if got != want {
		t.Fatalf("%s: stream state after crossover differs from the per-pair loop's", label)
	}
}

// TestCrossoverMatchesPairwiseDraws covers node counts on both sides of
// the 64-bit word boundaries and one to three parents, from identical to
// independent parents.
func TestCrossoverMatchesPairwiseDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := 0
	for _, n := range []int{2, 3, 30, 63, 64, 65, 130} {
		for _, a := range []int{1, 2, 3} {
			for _, density := range []float64{0, 0.1, 0.5, 1} {
				for _, edits := range []int{0, 1, 5, -1} {
					parents, weights := crossoverCase(rng, n, a, density, edits)
					label := fmt.Sprintf("n %d a %d density %.1f edits %d", n, a, density, edits)
					checkInherit(t, label, n, parents, weights, rng.Uint64())
					cases++
				}
			}
		}
	}
	if cases != 7*3*4*4 {
		t.Fatalf("ran %d cases", cases)
	}
}

// FuzzCrossoverDraws checks inheritLinks against the per-pair oracle on
// arbitrary node counts, parent counts, densities, edit counts and
// streams. Run with
//
//	go test ./internal/core -run '^$' -fuzz FuzzCrossoverDraws -fuzztime 30s
func FuzzCrossoverDraws(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(2), uint8(20), int8(3), uint64(7))
	f.Add(int64(2), uint8(64), uint8(3), uint8(128), int8(-1), uint64(0))
	f.Add(int64(3), uint8(1), uint8(1), uint8(0), int8(0), uint64(1))
	f.Fuzz(func(t *testing.T, seed int64, nb, ab, density uint8, edits int8, stream uint64) {
		n := 1 + int(nb)%140
		a := 1 + int(ab)%3
		rng := rand.New(rand.NewSource(seed))
		parents, weights := crossoverCase(rng, n, a, float64(density)/255, int(edits))
		checkInherit(t, "fuzz", n, parents, weights, stream)
	})
}

// BenchmarkCrossover times one crossover offspring — tournament, link
// inheritance and connectivity repair — bred from a GA's evaluated
// initial population, at the paper's n=30 and at n=64.
func BenchmarkCrossover(b *testing.B) {
	for _, n := range []int{30, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			e := ctx(b, n, cost.Params{K0: 10, K1: 1, K2: 4e-4, K3: 10}, 1)
			ga := newRunner(e, DefaultSettings(), 1)
			pop := ga.initialPopulation()
			costs := ga.evaluate(pop)
			sortByCost(pop, costs)
			sc := ga.scratches[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := ga.stream(1, i)
				ga.crossover(pop, costs, &rng, sc)
			}
		})
	}
}
