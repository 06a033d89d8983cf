// Package heuristics implements the non-GA optimizers from §5 of the COLD
// paper: simple closed-form topologies (minimum spanning tree, clique,
// best single-hub star) and the four greedy hub-growing algorithms the GA
// is benchmarked against — Random Greedy, Complete, MST and Greedy
// Attachment — plus brute-force enumeration for small n, used to verify
// that the GA finds true optima.
//
// Every hub-growing algorithm follows the paper's template: start with one
// hub and all other PoPs as leaves attached to it; convert leaves to hubs
// one at a time while that reduces network cost, re-attaching the remaining
// leaves to their closest hub after every change. The variants differ only
// in how a new hub is wired into the existing hubs.
package heuristics

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/graph"
)

// Result is an optimizer's best topology and its cost.
type Result struct {
	Name  string
	Graph *graph.Graph
	Cost  float64
}

// PureMST returns the minimum spanning tree over all PoPs — the optimal
// topology when the length cost k1 dominates.
func PureMST(e *cost.Evaluator) Result {
	g := graph.MST(e.N(), e.Dist())
	return Result{Name: "mst-all", Graph: g, Cost: e.Cost(g)}
}

// Clique returns the fully connected topology — optimal when the bandwidth
// cost k2 dominates.
func Clique(e *cost.Evaluator) Result {
	g := graph.Complete(e.N())
	return Result{Name: "clique", Graph: g, Cost: e.Cost(g)}
}

// Star returns the best single-hub star: every greedy algorithm's starting
// point, and the optimal topology when the hub cost k3 dominates.
func Star(e *cost.Evaluator) Result {
	return newSeeder(e).bestStar()
}

// screenSlack is the relative half-width ε of a price's estimate interval.
// It is a fixed constant, far above the hub table's rounding error (below
// 6e-11 for every context the table estimates; DESIGN.md, "Hub-level
// pricing"), so an interval always holds the exact cost.
const screenSlack = 1e-9

// price is a candidate topology's cost as an interval [lo, hi] that holds
// its exact Cost; lo == hi once the exact cost is known. The candidate is
// the hub-and-leaves graph of hubs with the links edges, plus link when its
// two ends differ.
type price struct {
	lo, hi float64
	hubs   []int
	edges  [][2]int
	link   [2]int
}

// none is the price of no candidate: exactly +Inf, so any connected
// candidate beats it.
var none = price{lo: math.Inf(1), hi: math.Inf(1)}

// setEstimate sets p's interval from a hub-table estimate: est·(1±ε), or
// exactly +Inf for a disconnected candidate, or unbounded when there is no
// estimate.
func (p *price) setEstimate(est float64, ok bool) {
	switch {
	case !ok:
		p.lo, p.hi = math.Inf(-1), math.Inf(1)
	case math.IsInf(est, 1):
		p.lo, p.hi = est, est
	default:
		p.lo, p.hi = est*(1-screenSlack), est*(1+screenSlack)
	}
}

// seeder is the state the hub-growing heuristics share: the evaluator, a
// hub table and the greedy wiring's link marks. Like the evaluator, it is
// not safe for concurrent use.
type seeder struct {
	e      *cost.Evaluator
	tab    *cost.HubTable
	linked []bool
	// nearTies counts the comparisons less could not decide from the
	// intervals, so it priced both sides exactly; tests read it.
	nearTies int
}

func newSeeder(e *cost.Evaluator) *seeder {
	return &seeder{e: e, tab: e.NewHubTable(), linked: make([]bool, e.N())}
}

// priced returns the price of the candidate hubs with the links edges,
// estimated from a fresh table fill.
func (s *seeder) priced(hubs []int, edges [][2]int) price {
	p := price{hubs: hubs, edges: edges}
	s.tab.Fill(hubs, edges)
	p.setEstimate(s.tab.Estimate())
	return p
}

// graph builds p's candidate topology.
func (s *seeder) graph(p *price) *graph.Graph {
	g := assemble(s.e, p.hubs, p.edges)
	if p.link[0] != p.link[1] {
		g.AddEdge(p.link[0], p.link[1])
	}
	return g
}

// exact returns p's exact Cost, computing it on first use.
func (s *seeder) exact(p *price) float64 {
	if p.lo != p.hi {
		c := s.e.Cost(s.graph(p))
		p.lo, p.hi = c, c
	}
	return p.lo
}

// less reports whether a's exact cost is below b's. It decides from the
// intervals when they separate and prices both exactly only on a near tie,
// so every decision equals a strict < between exact costs.
func (s *seeder) less(a, b *price) bool {
	switch {
	case a.hi < b.lo:
		return true
	case b.hi <= a.lo:
		return false
	}
	s.nearTies++
	return s.exact(a) < s.exact(b)
}

// result returns p's topology with its exact cost; a price with no
// candidate (an empty context, or no permutations) has no graph.
func (s *seeder) result(name string, p *price) Result {
	if p.hubs == nil {
		return Result{Name: name, Cost: math.Inf(1)}
	}
	g := s.graph(p)
	c := p.lo
	if p.lo != p.hi {
		c = s.e.Cost(g)
	}
	return Result{Name: name, Graph: g, Cost: c}
}

// bestStar returns Star's result.
func (s *seeder) bestStar() Result {
	best := s.star()
	return s.result("star", &best)
}

// star returns the price of the best single-hub star (the first hub on
// ties).
func (s *seeder) star() price {
	best := none
	for h := 0; h < s.e.N(); h++ {
		if p := s.priced([]int{h}, nil); s.less(&p, &best) {
			best = p
		}
	}
	return best
}

// hubWiring decides how a newly promoted hub connects to the existing hubs.
// It receives the hub set including the new hub as the last element and
// the existing hubs' links prev, and returns the priced candidate with the
// inter-hub links for the whole hub set.
type hubWiring func(s *seeder, hubs []int, prev [][2]int, newHub int) price

// growHubs runs the shared greedy loop: starting from the best single-hub
// star, promote the leaf whose wired candidate costs least, while that
// lowers the cost (the first such leaf on ties).
func (s *seeder) growHubs(name string, wire hubWiring) Result {
	n := s.e.N()
	cur := s.star()
	for len(cur.hubs) < n {
		best, grown := cur, false
		for v := 0; v < n; v++ {
			if contains(cur.hubs, v) {
				continue
			}
			cand := append(append([]int(nil), cur.hubs...), v)
			if p := wire(s, cand, cur.edges, v); s.less(&p, &best) {
				best, grown = p, true
			}
		}
		cur = best
		if !grown {
			break // no promotion reduces cost: terminate
		}
	}
	return s.result(name, &cur)
}

// assemble builds the network for a hub set: the given inter-hub edges plus
// every remaining leaf attached to its closest hub.
func assemble(e *cost.Evaluator, hubs []int, hubEdges [][2]int) *graph.Graph {
	n := e.N()
	g := graph.New(n)
	for _, he := range hubEdges {
		g.AddEdge(he[0], he[1])
	}
	for v := 0; v < n; v++ {
		if !contains(hubs, v) {
			g.AddEdge(v, nearest(e.Dist(), v, hubs))
		}
	}
	return g
}

// nearest returns the hub closest to v: the first in hubs on ties, the rule
// cost.HubTable.Fill shares.
func nearest(dist [][]float64, v int, hubs []int) int {
	best, bestD := hubs[0], math.Inf(1)
	for _, h := range hubs {
		if h == v {
			continue
		}
		if d := dist[v][h]; d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// cliqueEdges links every pair of hubs ("the hubs form a completely
// connected graph").
func cliqueEdges(hubs []int) [][2]int {
	var edges [][2]int
	for i := 0; i < len(hubs); i++ {
		for j := i + 1; j < len(hubs); j++ {
			edges = append(edges, [2]int{hubs[i], hubs[j]})
		}
	}
	return edges
}

// mstEdges links the hubs by a minimum spanning tree over their distances.
func mstEdges(e *cost.Evaluator, hubs []int) [][2]int {
	k := len(hubs)
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
		for j := range w[i] {
			w[i][j] = e.Dist()[hubs[i]][hubs[j]]
		}
	}
	t := graph.MST(k, w)
	var edges [][2]int
	for _, te := range t.Edges() {
		edges = append(edges, [2]int{hubs[te.I], hubs[te.J]})
	}
	return edges
}

// Complete grows hubs wired as a clique: each new hub links to all existing
// hubs.
func Complete(e *cost.Evaluator) Result {
	return newSeeder(e).growHubs("complete", cliqueWiring)
}

// cliqueWiring is Complete's hubWiring.
func cliqueWiring(s *seeder, hubs []int, _ [][2]int, _ int) price {
	return s.priced(hubs, cliqueEdges(hubs))
}

// HubMST grows hubs wired as a minimum spanning tree over the hub set
// (the paper's "MST" greedy variant).
func HubMST(e *cost.Evaluator) Result {
	return newSeeder(e).growHubs("hub-mst", mstWiring)
}

// mstWiring is HubMST's hubWiring.
func mstWiring(s *seeder, hubs []int, _ [][2]int, _ int) price {
	return s.priced(hubs, mstEdges(s.e, hubs))
}

// GreedyAttachment grows hubs wired greedily: the new hub first takes the
// single cheapest connecting link, then keeps adding links to other hubs
// while each addition reduces total cost.
func GreedyAttachment(e *cost.Evaluator) Result {
	return newSeeder(e).growHubs("greedy-attach", (*seeder).wire)
}

// wire keeps prev inter-hub edges and attaches newHub greedily: first the
// single link that minimizes network cost, then further links while each
// decreases it. It fills the hub table once for the hubs and prev, prices
// each candidate link from it (cost.HubTable.EstimateAddLink) and extends
// it by every accepted link, and returns the final graph's price.
func (s *seeder) wire(hubs []int, prev [][2]int, newHub int) price {
	edges := append([][2]int(nil), prev...)
	others := hubs[:len(hubs)-1]
	s.tab.Fill(hubs, edges)
	clear(s.linked)
	// The mandatory first link has nothing to beat; each optional link must
	// beat the graph before it.
	cur := none
	for {
		var h int
		if cur, h = s.pick(hubs, edges, others, newHub, cur); h < 0 {
			return cur
		}
		edges = append(edges, [2]int{h, newHub})
		s.linked[h] = true
		s.tab.AddLink(h, newHub)
		cur.edges, cur.link = edges, [2]int{}
	}
}

// pick returns the cheapest candidate hubs + edges + {h, newHub} over the
// unlinked hubs h among others, if it beats bound (the first such h on
// ties), with that h; otherwise bound and -1.
func (s *seeder) pick(hubs []int, edges [][2]int, others []int, newHub int, bound price) (price, int) {
	best, bestH := bound, -1
	for _, h := range others {
		if s.linked[h] {
			continue
		}
		p := price{hubs: hubs, edges: edges, link: [2]int{h, newHub}}
		p.setEstimate(s.tab.EstimateAddLink(h, newHub))
		if s.less(&p, &best) {
			best, bestH = p, h
		}
	}
	return best, bestH
}

// RandomGreedy runs the paper's Random Greedy algorithm: iterate over PoPs
// in a random permutation, promoting a PoP to hub (wired greedily, as in
// GreedyAttachment) whenever that reduces cost; repeat for perms
// permutations and keep the best network found.
func RandomGreedy(e *cost.Evaluator, rng *rand.Rand, perms int) Result {
	return newSeeder(e).randomGreedy(rng, perms)
}

func (s *seeder) randomGreedy(rng *rand.Rand, perms int) Result {
	n := s.e.N()
	if n == 1 { // return before drawing any permutation from rng
		g := graph.New(1)
		return Result{Name: "random-greedy", Graph: g, Cost: s.e.Cost(g)}
	}
	// Every permutation starts from the same best star.
	start := s.star()
	best := none
	for p := 0; p < perms; p++ {
		cur := start
		for _, v := range rng.Perm(n) {
			if contains(cur.hubs, v) {
				continue
			}
			cand := append(append([]int(nil), cur.hubs...), v)
			if c := s.wire(cand, cur.edges, v); s.less(&c, &cur) {
				cur = c
			}
		}
		if s.less(&cur, &best) {
			best = cur
		}
	}
	return s.result("random-greedy", &best)
}

// DefaultRandomGreedyPerms is the number of permutations RandomGreedy uses
// inside All.
const DefaultRandomGreedyPerms = 10

// All runs every heuristic and returns the results, suitable for seeding
// the genetic algorithm (the paper's "initialised GA").
func All(e *cost.Evaluator, rng *rand.Rand) []Result {
	return newSeeder(e).all(rng)
}

func (s *seeder) all(rng *rand.Rand) []Result {
	return []Result{
		PureMST(s.e),
		Clique(s.e),
		s.bestStar(),
		s.growHubs("complete", cliqueWiring),
		s.growHubs("hub-mst", mstWiring),
		s.growHubs("greedy-attach", (*seeder).wire),
		s.randomGreedy(rng, DefaultRandomGreedyPerms),
	}
}

// Graphs extracts the topologies from results.
func Graphs(rs []Result) []*graph.Graph {
	gs := make([]*graph.Graph, len(rs))
	for i, r := range rs {
		gs[i] = r.Graph
	}
	return gs
}

// Best returns the lowest-cost result. It panics on empty input.
func Best(rs []Result) Result {
	if len(rs) == 0 {
		panic("heuristics: Best of no results")
	}
	best := rs[0]
	for _, r := range rs[1:] {
		if r.Cost < best.Cost {
			best = r
		}
	}
	return best
}

// MaxBruteForceN bounds exhaustive enumeration: beyond 8 PoPs the 2^28
// candidate graphs make it impractical, as §5 of the paper notes.
const MaxBruteForceN = 8

// BruteForce enumerates every labeled graph on the context's PoPs and
// returns the true optimum. Only feasible for very small n; it returns an
// error when n exceeds MaxBruteForceN.
func BruteForce(e *cost.Evaluator) (Result, error) {
	n := e.N()
	if n > MaxBruteForceN {
		return Result{}, fmt.Errorf("heuristics: brute force limited to n <= %d, got %d", MaxBruteForceN, n)
	}
	if n == 0 {
		g := graph.New(0)
		return Result{Name: "brute-force", Graph: g, Cost: 0}, nil
	}
	pairs := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	best := Result{Name: "brute-force", Cost: math.Inf(1)}
	g := graph.New(n)
	var prev uint64
	for mask := uint64(0); mask < 1<<len(pairs); mask++ {
		// A connected graph needs at least n-1 edges.
		if bits.OnesCount64(mask) < n-1 {
			continue
		}
		// Flip only the bits that changed since the previous mask.
		diff := mask ^ prev
		for diff != 0 {
			b := bits.TrailingZeros64(diff)
			pr := pairs[b]
			g.SetEdge(pr[0], pr[1], mask&(1<<b) != 0)
			diff &^= 1 << b
		}
		prev = mask
		if !g.IsConnected() {
			continue
		}
		if c := e.CostUncached(g); c < best.Cost {
			best.Graph = g.Clone()
			best.Cost = c
		}
	}
	return best, nil
}
