package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/core"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/heuristics"
	"github.com/networksynth/cold/internal/metrics"
	"github.com/networksynth/cold/internal/stats"
	"github.com/networksynth/cold/internal/store"
	"github.com/networksynth/cold/internal/traffic"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one replayed request share Req; Parent is the ID of
// the enclosing span (0 at the top).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: ms(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = ms(time.Since(t.epoch))
	return time.Duration((s.End - s.Start) * float64(time.Millisecond))
}

// selfTime is a span's duration minus the time its children cover
// (children of one span never overlap: the replay is serial).
func (t *tracer) selfTime(id int) time.Duration {
	s := t.spans[id-1]
	self := s.End - s.Start
	for _, c := range t.spans {
		if c.Parent == id {
			self -= c.End - c.Start
		}
	}
	return time.Duration(self * float64(time.Millisecond))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// These mirror the unexported seed-derivation constants of package cold
// (cold.go: replicaTag, gaTag and the heuristic stream's xor). If cold
// changes them, the composed replay stops matching the engine and the
// traced run reports the mismatch instead of layer numbers.
const (
	replicaTag   = 0xC01DC01D
	gaTag        = 0x6A5EED
	heuristicXor = 0x5DEECE66D
)

// replica holds one replayed replica's layer measurements.
type replica struct {
	index int

	engine time.Duration // the engine's own (untraced) time for this replica

	context, heuristics, ga, materialize, encode time.Duration
	breed, eval                                  time.Duration // summed GenStats
	composed, self                               time.Duration // replica span and its self time
	generations                                  int
	heurLookups                                  uint64 // evaluator lookups made by heuristics.All
	heurProbed                                   bool   // heuristics timed stand-alone (the engine bypasses them)
	costStats                                    cost.Stats
	sweep                                        time.Duration // median CostUncached over the final population
	encodeBytes                                  int
}

// unattributed is the engine's replica time not covered by the composed
// layers on its path (a stand-alone heuristics probe is not on it).
func (r *replica) unattributed() time.Duration {
	onPath := r.context + r.ga + r.materialize
	if !r.heurProbed {
		onPath += r.heuristics
	}
	return r.engine - onPath
}

// replayRequest is one sampled request replayed in-process.
type replayRequest struct {
	req        *request
	engineP1   time.Duration // whole serial ensemble
	engineP2   time.Duration // whole ensemble at Parallelism 2
	firstEmit  time.Duration
	storePut   time.Duration
	replicas   []*replica
	artifact   []byte
	mismatches []string
}

// replay runs each sampled request through the engine (untraced, serial
// and at Parallelism 2) and then through the composed layer calls with
// spans, checking that the composition reproduces the engine's total cost
// and link set for every replica.
func replay(tr *tracer, reqs []*request, st *store.Store) ([]*replayRequest, error) {
	var out []*replayRequest
	for ri, r := range reqs {
		rr := &replayRequest{req: r}
		out = append(out, rr)
		reqSpan := tr.begin("request", 0, ri)

		// Engine, serial: the replica times the server's job loop sees.
		cfg := r.cfg
		cfg.Parallelism = 1
		var nets []*cold.Network
		var emits []time.Duration
		engSpan := tr.begin("engine.p1", reqSpan, ri)
		start := time.Now()
		err := cold.GenerateEnsembleStream(context.Background(), cfg, count, func(_ int, nw *cold.Network) error {
			emits = append(emits, time.Since(start))
			nets = append(nets, nw)
			return nil
		})
		rr.engineP1 = tr.end(engSpan)
		if err != nil {
			return nil, fmt.Errorf("engine run: %w", err)
		}
		rr.firstEmit = emits[0]

		cfg.Parallelism = 2
		engSpan = tr.begin("engine.p2", reqSpan, ri)
		err = cold.GenerateEnsembleStream(context.Background(), cfg, count, func(int, *cold.Network) error { return nil })
		rr.engineP2 = tr.end(engSpan)
		if err != nil {
			return nil, fmt.Errorf("engine run: %w", err)
		}

		for i, nw := range nets {
			prev := time.Duration(0)
			if i > 0 {
				prev = emits[i-1]
			}
			rep, err := composeReplica(tr, reqSpan, ri, r.cfg, i, nw, ri == 0 && i == 0)
			if err != nil {
				var mm mismatchError
				if errors.As(err, &mm) {
					rr.mismatches = append(rr.mismatches, err.Error())
					continue
				}
				return nil, err
			}
			rep.engine = emits[i] - prev
			rr.replicas = append(rr.replicas, rep)

			encSpan := tr.begin("encode", reqSpan, ri)
			line, err := json.Marshal(nw)
			tr.end(encSpan)
			if err != nil {
				return nil, err
			}
			encs := make([]float64, 9)
			for k := range encs {
				t := time.Now()
				_, _ = json.Marshal(nw) // succeeded just above
				encs[k] = float64(time.Since(t))
			}
			rep.encode = time.Duration(median(encs))
			rep.encodeBytes = len(line)
			rr.artifact = append(append(rr.artifact, line...), '\n')
		}

		putSpan := tr.begin("store.put", reqSpan, ri)
		err = st.Put(fmt.Sprintf("%s-c%d-a1", r.hash, count), rr.artifact)
		rr.storePut = tr.end(putSpan)
		if err != nil {
			return nil, err
		}
		tr.end(reqSpan)
	}
	return out, nil
}

// mismatchError reports a composed replica that did not reproduce the
// engine's network.
type mismatchError struct{ msg string }

func (e mismatchError) Error() string { return e.msg }

// composeReplica replays replica i of cfg's ensemble through the layers'
// own entry points — context sampling (geom, traffic, cost.NewEvaluator),
// heuristics.All, core.RunContext, Evaluate + metrics.Summarize — timing
// each, and compares the outcome with want, the engine's network. With
// probe set and heuristics off, it also times heuristics.All stand-alone
// on the replica's context, so that layer reports a number on workloads
// whose engine path bypasses it.
func composeReplica(tr *tracer, parent, req int, cfg cold.Config, i int, want *cold.Network, probe bool) (*replica, error) {
	if cfg.Locations.Kind != cold.LocUniform || cfg.Locations.Aspect != 0 ||
		cfg.Traffic.Kind != cold.TrafficExponential || cfg.Traffic.MeanPopulation != 0 || cfg.Traffic.Scale != 0 {
		return nil, errors.New("replay supports the default location and traffic models only")
	}
	rep := &replica{index: i}
	seed := int64(stats.StreamSeed(uint64(cfg.Seed), replicaTag, uint64(i)))
	repSpan := tr.begin("replica", parent, req)

	s := tr.begin("context", repSpan, req)
	ev, err := buildEvaluator(cfg, seed)
	rep.context = tr.end(s)
	if err != nil {
		return nil, err
	}

	settings := core.DefaultSettings()
	if p := cfg.Optimizer.PopulationSize; p != 0 {
		settings.PopulationSize = p
	}
	if g := cfg.Optimizer.Generations; g != 0 {
		settings.Generations = g
	}
	settings.NumSaved = max(1, settings.PopulationSize/10)
	settings.NumMutation = settings.PopulationSize * 3 / 10
	settings.TrackHistory = cfg.Optimizer.TrackHistory
	settings.Parallelism = 1
	settings.Observer = func(g core.GenStats) {
		rep.breed += time.Duration(g.BreedNs)
		rep.eval += time.Duration(g.EvalNs)
		rep.generations++
	}

	if cfg.Optimizer.SeedWithHeuristics {
		s = tr.begin("heuristics", repSpan, req)
		before := ev.Stats()
		hs := heuristics.All(ev, rand.New(rand.NewSource(seed^heuristicXor)))
		rep.heuristics = tr.end(s)
		after := ev.Stats()
		rep.heurLookups = after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses
		settings.Seeds = heuristics.Graphs(hs)
	}

	s = tr.begin("ga", repSpan, req)
	res, err := core.RunContext(context.Background(), ev, settings, stats.StreamSeed(uint64(seed), gaTag))
	rep.ga = tr.end(s)
	if err != nil {
		return nil, err
	}
	rep.costStats = ev.Stats()

	s = tr.begin("materialize", repSpan, req)
	evaluation := ev.Evaluate(res.Best)
	_ = metrics.Summarize(res.Best)
	rep.materialize = tr.end(s)
	rep.composed = tr.end(repSpan)
	rep.self = tr.selfTime(repSpan)

	if !evaluation.Connected {
		return nil, mismatchError{fmt.Sprintf("replica %d of %s: composed network is disconnected", i, short(cfg))}
	}
	if evaluation.Total != want.Cost.Total {
		return nil, mismatchError{fmt.Sprintf("replica %d of %s: composed cost %v, engine %v", i, short(cfg), evaluation.Total, want.Cost.Total)}
	}
	if len(evaluation.Edges) != len(want.Links) {
		return nil, mismatchError{fmt.Sprintf("replica %d of %s: composed %d links, engine %d", i, short(cfg), len(evaluation.Edges), len(want.Links))}
	}
	for k, e := range evaluation.Edges {
		if l := want.Links[k]; l.A != e.I || l.B != e.J {
			return nil, mismatchError{fmt.Sprintf("replica %d of %s: link %d is (%d,%d), engine (%d,%d)", i, short(cfg), k, e.I, e.J, l.A, l.B)}
		}
	}

	// Kernel cost of one full evaluation: CostUncached over the candidates
	// the GA ended with (outside the replica span).
	sweeps := make([]float64, len(res.Population))
	for k, g := range res.Population {
		t := time.Now()
		ev.CostUncached(g)
		sweeps[k] = float64(time.Since(t))
	}
	rep.sweep = time.Duration(median(sweeps))

	if probe && !cfg.Optimizer.SeedWithHeuristics {
		pev, err := buildEvaluator(cfg, seed)
		if err != nil {
			return nil, err
		}
		s = tr.begin("heuristics.probe", parent, req)
		heuristics.All(pev, rand.New(rand.NewSource(seed^heuristicXor)))
		rep.heuristics = tr.end(s)
		st := pev.Stats()
		rep.heurLookups = st.CacheHits + st.CacheMisses
		rep.heurProbed = true
	}
	return rep, nil
}

// buildEvaluator samples a replica's context the way package cold does
// for the default location and traffic models.
func buildEvaluator(cfg cold.Config, seed int64) (*cost.Evaluator, error) {
	params := cfg.Params
	if params == (cold.Params{}) {
		params = cold.DefaultParams()
	}
	rng := rand.New(rand.NewSource(seed))
	region, err := geom.NewRect(1)
	if err != nil {
		return nil, err
	}
	pts := geom.Uniform{Region: region}.Sample(cfg.NumPoPs, rng)
	pops := traffic.Exponential{Mean: traffic.DefaultMeanPopulation}.Sample(cfg.NumPoPs, rng)
	tm := traffic.Gravity(pops, traffic.DefaultGravityScale)
	return cost.NewEvaluator(geom.DistanceMatrix(pts), tm, cost.Params{K0: params.K0, K1: params.K1, K2: params.K2, K3: params.K3})
}

func short(cfg cold.Config) string { return fmt.Sprintf("n=%d seed=%d", cfg.NumPoPs, cfg.Seed) }

// storeProbe times internal/store on the replayed artifacts: Put, Get
// alone, and Get while another goroutine keeps Putting (the store holds
// its one mutex across file I/O, so contended Gets queue behind writes).
type storeProbe struct {
	put, get50, get99, contended time.Duration
}

func probeStore(dir string, artifacts map[string][]byte) (*storeProbe, error) {
	st, err := store.Open(dir, store.Options{MaxBytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(artifacts))
	var puts []float64
	for k, data := range artifacts {
		t := time.Now()
		if err := st.Put(k, data); err != nil {
			return nil, err
		}
		puts = append(puts, float64(time.Since(t)))
		keys = append(keys, k)
	}
	gets := func(k int) ([]float64, error) {
		out := make([]float64, k)
		for i := range out {
			t := time.Now()
			if _, err := st.Get(keys[i%len(keys)]); err != nil {
				return nil, err
			}
			out[i] = float64(time.Since(t))
		}
		return out, nil
	}
	if _, err := gets(200); err != nil { // warm the page cache and index
		return nil, err
	}
	alone, err := gets(2000)
	if err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	putErr := make(chan error, 1) // the writer sends exactly once
	data := artifacts[keys[0]]
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				putErr <- nil
				return
			default:
			}
			if err := st.Put(fmt.Sprintf("contend-%d", i%64), data); err != nil {
				putErr <- err
				return
			}
		}
	}()
	contended, err := gets(1000)
	close(stop)
	if perr := <-putErr; err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	return &storeProbe{
		put:       time.Duration(median(puts)),
		get50:     time.Duration(percentile(alone, 50)),
		get99:     time.Duration(percentile(alone, 99)),
		contended: time.Duration(percentile(contended, 50)),
	}, nil
}

// decodeHashProbe times what coldd's handler does with a request body
// before it touches the store: strict JSON decode, then Config.Hash
// (which validates).
func decodeHashProbe(reqs []*request) (time.Duration, error) {
	type generateRequest struct {
		Config cold.Config `json:"config"`
		Count  int         `json:"count"`
	}
	var ts []float64
	for i := 0; i < 2000; i++ {
		r := reqs[i%len(reqs)]
		t := time.Now()
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		var gr generateRequest
		if err := dec.Decode(&gr); err != nil && err != io.EOF {
			return 0, err
		}
		h, err := gr.Config.Hash()
		ts = append(ts, float64(time.Since(t)))
		if err != nil {
			return 0, err
		}
		if h != r.hash {
			return 0, fmt.Errorf("decoded body hashes to %s, want %s", h, r.hash)
		}
	}
	return time.Duration(median(ts)), nil
}
