package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	cold "github.com/networksynth/cold"
)

// A workload is one named request mix against coldd. Every request config
// is drawn from the workload seed, so a seed fixes the request set; how
// far into it a run gets depends only on how fast the server answers.
type workload struct {
	name string

	// miss is the template of the fresh configs the generating client
	// sends (Seed filled per request); nil when the workload sends none.
	miss *cold.Config
	// hit is the template of the configs prefilled into the cache during
	// set-up; hitKeys is how many. nil when the workload has no hits.
	hit     *cold.Config
	hitKeys int
	// joinAfter is how long after a miss is sent the hit client joins it
	// (mixed workloads); it must stay well below the miss's generation
	// time, or the join finds a finished artifact and counts as a hit.
	joinAfter time.Duration
}

// count is the ensemble size of every request.
const count = 2

// headline is the request class the end-to-end metrics describe: its
// latencies, and the networks its responses carry (generated for misses,
// served for hits). A workload that generates is about its misses; on
// mixed-n64 the hit latency under generation load is reported in the
// detail only, since its run-to-run spread (about 0.3 of its median over
// ten seeds on a 2-vCPU VM) is wider than any bound a regression check
// could use.
func (w *workload) headline() string {
	if w.miss != nil {
		return classMiss
	}
	return classHit
}

const (
	classMiss  = "miss"  // a fresh config: generated, then stored
	classHit   = "hit"   // a prefilled key: served from the store
	classShare = "share" // joins an identical in-flight miss (single-flight)
)

// workloads returns the workload table. short scales the generation
// settings down so a whole run takes a second or two (the package test);
// the request pattern of each workload stays the same.
func workloads(short bool) map[string]*workload {
	opt := func(pop, gens int, heur bool) cold.OptimizerSpec {
		return cold.OptimizerSpec{PopulationSize: pop, Generations: gens, SeedWithHeuristics: heur}
	}
	paper := &cold.Config{NumPoPs: 30, Optimizer: opt(100, 100, true)}
	hot := &cold.Config{NumPoPs: 30, Optimizer: opt(10, 5, false)}
	mixMiss := &cold.Config{NumPoPs: 64, Optimizer: opt(0, 30, false)}
	mixHit := &cold.Config{NumPoPs: 64, Optimizer: opt(10, 5, false)}
	hotKeys, mixKeys := 16, 8
	joinAfter := 400 * time.Millisecond
	if short {
		paper = &cold.Config{NumPoPs: 12, Optimizer: opt(12, 6, true)}
		mixMiss = &cold.Config{NumPoPs: 40, Optimizer: opt(20, 60, false)}
		mixHit = &cold.Config{NumPoPs: 40, Optimizer: opt(10, 2, false)}
		hotKeys, mixKeys = 4, 2
		joinAfter = 20 * time.Millisecond
	}
	return map[string]*workload{
		"paper-n30": {name: "paper-n30", miss: paper},
		"hot-hits":  {name: "hot-hits", hit: hot, hitKeys: hotKeys},
		"mixed-n64": {name: "mixed-n64", miss: mixMiss, hit: mixHit, hitKeys: mixKeys, joinAfter: joinAfter},
	}
}

// request is one prepared POST /v1/generate: its config, the canonical
// hash the server keys it by, and the encoded body.
type request struct {
	cfg  cold.Config
	hash string
	body []byte
}

func newRequest(cfg cold.Config) (*request, error) {
	hash, err := cfg.Hash()
	if err != nil {
		return nil, err
	}
	// cold.Config holds func and pointer fields the service ignores, so
	// the body carries only the fields the workloads set.
	type wireConfig struct {
		NumPoPs   int
		Seed      int64
		Optimizer cold.OptimizerSpec
	}
	body, err := json.Marshal(struct {
		Config wireConfig `json:"config"`
		Count  int        `json:"count"`
	}{wireConfig{cfg.NumPoPs, cfg.Seed, cfg.Optimizer}, count})
	if err != nil {
		return nil, err
	}
	return &request{cfg: cfg, hash: hash, body: body}, nil
}

// Stream tags keep the seed-derived random streams of a run independent.
const (
	tagHitSet = 1 + iota
	tagSample
	tagHitOrder
	tagMissClient = 100
)

// rngFor returns the random stream tag of the run seeded with seed.
func rngFor(seed int64, tag int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(tag)))
}

// configs draws k configs from template, each with a fresh seed.
func configs(template *cold.Config, rng *rand.Rand, k int) ([]*request, error) {
	reqs := make([]*request, k)
	for i := range reqs {
		cfg := *template
		cfg.Seed = rng.Int63()
		r, err := newRequest(cfg)
		if err != nil {
			return nil, fmt.Errorf("workload config: %w", err)
		}
		reqs[i] = r
	}
	return reqs, nil
}
