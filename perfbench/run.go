package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/store"
)

// plan is a run's request set, drawn from the workload seed before any
// request is sent.
type plan struct {
	hits     []*request
	hitOrder [2][]int      // per client, a seed-shuffled order of hits
	misses   [2][]*request // per client; only client 0 generates in a mixed workload
	warm     [2]*request   // one small miss per client, sent during set-up
}

func newPlan(o *options, w *workload) (*plan, error) {
	p := &plan{}
	var err error
	if w.hit != nil {
		if p.hits, err = configs(w.hit, rngFor(o.seed, tagHitSet), w.hitKeys); err != nil {
			return nil, err
		}
		rng := rngFor(o.seed, tagHitOrder)
		for c := range p.hitOrder {
			p.hitOrder[c] = rng.Perm(len(p.hits))
		}
	}
	if w.miss != nil {
		// More requests than a client can complete in the window, so every
		// run sends a prefix of the same sequence.
		k := int(o.seconds*8) + 16
		for c := range p.misses {
			if p.misses[c], err = configs(w.miss, rngFor(o.seed, tagMissClient+c), k); err != nil {
				return nil, err
			}
		}
	}
	template := w.miss
	if template == nil {
		template = w.hit
	}
	small := *template
	small.Optimizer = cold.OptimizerSpec{PopulationSize: 10, Generations: 2}
	warm, err := configs(&small, rngFor(o.seed, tagSample), 2)
	if err != nil {
		return nil, err
	}
	copy(p.warm[:], warm)
	return p, nil
}

// setUp starts coldd on a fresh cache, prefills the workload's hit keys
// and warms both client connections, returning the time all of that took
// and the bytes of every prefilled artifact.
func setUp(o *options, p *plan, cacheDir string) (*daemon, [2]*client, map[string][]byte, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(o.coldd, cacheDir)
	if err != nil {
		return nil, [2]*client{}, nil, 0, err
	}
	clients := [2]*client{newClient(d.base), newClient(d.base)}
	fail := func(err error) (*daemon, [2]*client, map[string][]byte, time.Duration, error) {
		clients[0].close()
		clients[1].close()
		d.stop()
		return nil, [2]*client{}, nil, 0, err
	}
	stored := make(map[string][]byte, len(p.hits))
	var mu sync.Mutex
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Prefill: each client generates every other hit key.
			for i := c; i < len(p.hits); i += 2 {
				r := p.hits[i]
				s, body := clients[c].do(classMiss, r, false, nil)
				if s.err == nil {
					s.err = checkArtifact(body, r)
				}
				if s.err != nil {
					errs[c] = fmt.Errorf("prefill: %w", s.err)
					return
				}
				mu.Lock()
				stored[r.hash] = bytes.Clone(body)
				mu.Unlock()
			}
			// Warm-up: one small generation per client.
			s, body := clients[c].do(classMiss, p.warm[c], false, nil)
			if s.err == nil {
				s.err = checkArtifact(body, p.warm[c])
			}
			if s.err != nil {
				errs[c] = fmt.Errorf("warm-up: %w", s.err)
			}
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		return fail(fmt.Errorf("set-up: %v; %v", errs[0], errs[1]))
	}
	// Warm-up for hit clients: a pass over the prefilled keys.
	for c := range clients {
		for _, r := range p.hits {
			s, body := clients[c].do(classHit, r, false, nil)
			if s.err == nil && !bytes.Equal(body, stored[r.hash]) {
				s.err = fmt.Errorf("hit for %s differs from its prefill", r.hash[:12])
			}
			if s.err != nil {
				return fail(fmt.Errorf("warm-up: %w", s.err))
			}
		}
	}
	return d, clients, stored, time.Since(start), nil
}

// run performs one benchmark run: setupsPerRun set-ups (all but the last torn
// down again), the timed window, the output gate, and — with -trace 1 —
// the server counters and the in-process layer replay.
func run(o *options, w *workload) (*record, string, error) {
	p, err := newPlan(o, w)
	if err != nil {
		return nil, "", err
	}
	rec := &record{Detail: map[string]float64{}}
	problem := func(format string, args ...any) {
		rec.Problems = append(rec.Problems, fmt.Sprintf(format, args...))
	}

	var (
		d       *daemon
		clients [2]*client
		stored  map[string][]byte
		setups  []float64
	)
	for k := range setupsPerRun {
		dk, ck, sk, took, err := setUp(o, p, filepath.Join(o.workdir, fmt.Sprintf("cache-%d", k)))
		if err != nil {
			return nil, "", err
		}
		setups = append(setups, took.Seconds())
		for h, b := range stored {
			if !bytes.Equal(sk[h], b) {
				problem("prefilled artifact %s differs between set-ups", h[:12])
			}
		}
		d, clients, stored = dk, ck, sk
		if k < setupsPerRun-1 {
			clients[0].close()
			clients[1].close()
			d.stop()
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	counterNames := []string{"cold_eval_full_sweeps_total", "cold_eval_delta_total", "cold_ga_generations_total"}
	st0, err := d.stats()
	if err != nil {
		return nil, "", err
	}
	var prom0, prom1 map[string]float64
	if o.trace {
		if prom0, err = d.promCounters(counterNames...); err != nil {
			return nil, "", err
		}
	}
	win, err := runLoad(d, w, clients, p.misses, p.hits, stored, p.hitOrder, o.seconds)
	clients[0].close()
	clients[1].close()
	if err != nil {
		return nil, "", err
	}
	st1, err := d.stats()
	if err != nil {
		return nil, "", err
	}
	if o.trace {
		if prom1, err = d.promCounters(counterNames...); err != nil {
			return nil, "", err
		}
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, "", err
	}
	d.stop()
	stopped = true

	failed, reasons := gateWindow(win, referenceChecks, rngFor(o.seed, tagSample))
	rec.Problems = append(rec.Problems, reasons...)
	delta := st1.minus(st0)
	counts := map[string]int{}
	for _, s := range win.samples {
		counts[s.class]++
	}
	if int(delta.CacheMisses) != counts[classMiss] || int(delta.CacheHits) != counts[classHit] ||
		int(delta.SingleflightShared) != counts[classShare] || delta.QueueFull != 0 {
		problem("server counters (misses %d, hits %d, shared %d, queue full %d) do not match the requests sent (misses %d, hits %d, shares %d)",
			delta.CacheMisses, delta.CacheHits, delta.SingleflightShared, delta.QueueFull,
			counts[classMiss], counts[classHit], counts[classShare])
	}
	if w.miss != nil && w.hit != nil && counts[classShare] != counts[classMiss] {
		problem("%d shares for %d misses: the hit client must join every miss once", counts[classShare], counts[classMiss])
	}

	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed %d: %d requests in %.3fs (%d misses, %d hits, %d shares), %d failed\n",
		w.name, o.seed, len(win.samples), win.wall.Seconds(), counts[classMiss], counts[classHit], counts[classShare], failed)
	e2e := endToEnd(w, win, setups, rss, rec.Detail)
	rec.Result = result{
		Correct:   failed == 0 && len(rec.Problems) == 0,
		Attempted: len(win.samples),
		Failed:    failed,
		Metrics:   e2e,
	}
	rec.Detail["error_ratio"] = float64(failed) / float64(max(1, len(win.samples)))
	if !o.trace {
		formatMetrics(&b, "end-to-end", e2e)
		formatDetail(&b, rec.Detail)
		return rec, b.String(), nil
	}

	layers, attempted, mismatches, err := traceRun(o, w, p, delta, prom0, prom1, &b)
	if err != nil {
		return nil, "", err
	}
	rec.Result.Attempted += attempted
	rec.Result.Failed += len(mismatches)
	rec.Problems = append(rec.Problems, mismatches...)
	rec.Result.Correct = rec.Result.Failed == 0 && len(rec.Problems) == 0
	if len(mismatches) > 0 {
		// The composed calls did not reproduce the engine, so the layer
		// times would describe different work: report the mismatch only.
		layers = map[string]metric{}
	}
	rec.Result.Metrics = layers
	formatMetrics(&b, "per-layer", layers)
	return rec, b.String(), nil
}

// endToEnd computes the end-to-end metrics of a window over the
// workload's headline requests and the networks they carry.
// Class-specific figures go to detail.
func endToEnd(w *workload, win *window, setups []float64, rssMB float64, detail map[string]float64) map[string]metric {
	byClass := map[string][]sample{}
	for _, s := range win.samples {
		if s.err == nil {
			byClass[s.class] = append(byClass[s.class], s)
		}
	}
	lat := func(ss []sample) (total, ttfb []float64) {
		for _, s := range ss {
			total = append(total, ms(s.total))
			ttfb = append(ttfb, ms(s.ttfb))
		}
		return total, ttfb
	}
	wall := win.wall.Seconds()
	for _, class := range []string{classMiss, classHit, classShare} {
		ss := byClass[class]
		if len(ss) == 0 {
			continue
		}
		total, ttfb := lat(ss)
		pct := tailPercentile(len(total))
		detail[class+"_n"] = float64(len(total))
		detail[class+"_latency_p50_ms"] = median(total)
		detail[class+"_latency_p99_ms"] = percentile(total, 99)
		detail[class+"_latency_tail_ms"] = percentile(total, pct)
		detail[class+"_latency_tail_pct"] = pct
		detail[class+"_ttfb_p50_ms"] = median(ttfb)
	}
	okClass := func(class string) func(*sample) bool {
		return func(s *sample) bool { return s.err == nil && s.class == class }
	}
	if len(byClass[classMiss]) > 0 {
		detail["topologies_per_s"] = count * win.rate(okClass(classMiss))
		detail["cpu_ms_per_topology"] = ms(win.cpu) / float64(len(byClass[classMiss])*count)
	}
	detail["wall_s"] = wall
	detail["coldd_cpu_s"] = win.cpu.Seconds()
	detail["host_steal_ratio"] = win.steal

	networks := float64(len(byClass[w.headline()]) * count)
	total, ttfb := lat(byClass[w.headline()])
	detail["requests_per_s"] = win.rate(func(s *sample) bool { return s.err == nil })
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"networks_per_s":     {count * win.rate(okClass(w.headline())), "1/s"},
		"cpu_ms_per_network": {ms(win.cpu) / max(networks, 1), "ms"},
		"latency_p50_ms":     {median(total), "ms"},
		"latency_tail_ms":    {percentile(total, tailPercentile(len(total))), "ms"},
		"ttfb_p50_ms":        {median(ttfb), "ms"},
		"coldd_rss_peak_mb":  {rssMB, "MB"},
	}
}

func formatDetail(b *strings.Builder, detail map[string]float64) {
	m := make(map[string]metric, len(detail))
	for k, v := range detail {
		m[k] = metric{Value: v}
	}
	formatMetrics(b, "detail", m)
}

// traceRun is the per-layer half of a traced run: the server's counters
// over the window just measured, then the in-process replay of sampled
// workload inputs, the store and decode probes, and the per-replica
// waterfall. It returns the layer metrics, the number of replayed
// replicas, and any replica whose composed calls did not reproduce the
// engine.
func traceRun(o *options, w *workload, p *plan, delta serverStats, prom0, prom1 map[string]float64,
	b *strings.Builder) (map[string]metric, int, []string, error) {
	var sampled []*request
	switch {
	case w.miss == nil:
		sampled = p.hits[:min(4, len(p.hits))]
	case w.hit == nil:
		sampled = p.misses[0][:2]
	default:
		sampled = p.misses[0][:1]
	}
	rst, err := store.Open(filepath.Join(o.workdir, "replay-store"), store.Options{})
	if err != nil {
		return nil, 0, nil, err
	}
	tr := newTracer()
	reps, err := replay(tr, sampled, rst)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := tr.write(filepath.Join(o.workdir, "spans.jsonl")); err != nil {
		return nil, 0, nil, err
	}
	artifacts := map[string][]byte{}
	var mismatches []string
	attempted := 0
	for _, rr := range reps {
		artifacts[rr.req.hash] = rr.artifact
		mismatches = append(mismatches, rr.mismatches...)
		attempted += count
	}
	sp, err := probeStore(filepath.Join(o.workdir, "store-probe"), artifacts)
	if err != nil {
		return nil, 0, nil, err
	}
	bodies := append(append([]*request{}, p.hits...), p.misses[0]...)
	dh, err := decodeHashProbe(bodies)
	if err != nil {
		return nil, 0, nil, err
	}
	waterfall(b, reps, sp)
	return layerMetrics(reps, sp, dh, delta, prom0, prom1), attempted, mismatches, nil
}

// layerMetrics folds the replay, the probes and the server counters into
// the per-layer metrics. Per-replica figures are medians over the
// replayed replicas.
func layerMetrics(reps []*replayRequest, sp *storeProbe, decodeHash time.Duration, delta serverStats,
	prom0, prom1 map[string]float64) map[string]metric {
	var (
		engine, first, eff, ctx, heur, lookups, breed, eval, sweep, mat, enc, encBytes []float64
		unattributed, fullSweeps, deltaEvals                                           []float64
		gens                                                                           int
		gaTime, composed, engineSum                                                    time.Duration
		hits, lookupsAll, fallbacks, deltaTries, heap, n                               float64
	)
	for _, rr := range reps {
		first = append(first, ms(rr.firstEmit))
		eff = append(eff, rr.engineP1.Seconds()/(2*rr.engineP2.Seconds()))
		for _, r := range rr.replicas {
			n++
			if r.heuristics > 0 {
				heur = append(heur, ms(r.heuristics))
				lookups = append(lookups, float64(r.heurLookups))
			}
			engine = append(engine, ms(r.engine))
			ctx = append(ctx, ms(r.context))
			breed = append(breed, ms(r.breed))
			eval = append(eval, ms(r.eval))
			sweep = append(sweep, us(r.sweep))
			mat = append(mat, ms(r.materialize))
			enc = append(enc, us(r.encode))
			encBytes = append(encBytes, float64(r.encodeBytes))
			unattributed = append(unattributed, ms(r.unattributed()))
			gens += r.generations
			gaTime += r.ga
			composed += r.composed
			engineSum += r.engine
			cs := r.costStats
			fullSweeps = append(fullSweeps, float64(cs.FullSweeps))
			deltaEvals = append(deltaEvals, float64(cs.DeltaEvals))
			hits += float64(cs.CacheHits)
			lookupsAll += float64(cs.CacheHits + cs.CacheMisses)
			fallbacks += float64(cs.Fallbacks.Total())
			deltaTries += float64(cs.DeltaEvals + cs.Fallbacks.Total())
			if cs.Kernel == "heap" {
				heap++
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]metric{
		"coldd.decode_hash_us":       {us(decodeHash), "us"},
		"coldd.cache_hit_ratio":      {ratio(float64(delta.CacheHits), float64(delta.Requests)), "ratio"},
		"coldd.singleflight_shared":  {float64(delta.SingleflightShared), "count"},
		"coldd.cache_misses":         {float64(delta.CacheMisses), "count"},
		"coldd.full_sweeps":          {prom1["cold_eval_full_sweeps_total"] - prom0["cold_eval_full_sweeps_total"], "count"},
		"coldd.delta_evals":          {prom1["cold_eval_delta_total"] - prom0["cold_eval_delta_total"], "count"},
		"coldd.ga_generations":       {prom1["cold_ga_generations_total"] - prom0["cold_ga_generations_total"], "count"},
		"store.get_us":               {us(sp.get50), "us"},
		"store.get_p99_us":           {us(sp.get99), "us"},
		"store.put_ms":               {ms(sp.put), "ms"},
		"store.get_contended_us":     {us(sp.contended), "us"},
		"store.contention_ratio":     {ratio(float64(sp.contended), float64(sp.get50)), "ratio"},
		"engine.replica_ms":          {median(engine), "ms"},
		"engine.first_emit_ms":       {median(first), "ms"},
		"engine.parallel_efficiency": {median(eff), "ratio"},
		"context.build_ms":           {median(ctx), "ms"},
		"heuristics.all_ms":          {median(heur), "ms"},
		"heuristics.lookups":         {median(lookups), "count"},
		"ga.breed_ms":                {median(breed), "ms"},
		"ga.eval_ms":                 {median(eval), "ms"},
		"ga.generations_per_s":       {ratio(float64(gens), gaTime.Seconds()), "1/s"},
		"cost.full_sweep_us":         {median(sweep), "us"},
		"cost.cache_hit_ratio":       {ratio(hits, lookupsAll), "ratio"},
		"cost.full_sweeps":           {median(fullSweeps), "count"},
		"cost.delta_evals":           {median(deltaEvals), "count"},
		"cost.delta_fallback_ratio":  {ratio(fallbacks, deltaTries), "ratio"},
		"cost.kernel_heap":           {ratio(heap, n), "ratio"},
		"materialize.ms":             {median(mat), "ms"},
		"encode.us":                  {median(enc), "us"},
		"encode.bytes":               {median(encBytes), "bytes"},
		"replica.unattributed_ms":    {median(unattributed), "ms"},
		"trace.overhead_ratio":       {ratio(composed.Seconds(), engineSum.Seconds()) - 1, "ratio"},
	}
}

// waterfall prints each replayed replica's layer times in call order.
func waterfall(b *strings.Builder, reps []*replayRequest, sp *storeProbe) {
	fmt.Fprintf(b, "waterfall (ms; composed layer calls, engine = the untraced engine's time for the same replica)\n")
	for ri, rr := range reps {
		for _, r := range rr.replicas {
			heur := fmt.Sprintf("heuristics %.2f", ms(r.heuristics))
			switch {
			case r.heurProbed:
				heur = fmt.Sprintf("heuristics bypassed (stand-alone %.2f)", ms(r.heuristics))
			case !rr.req.cfg.Optimizer.SeedWithHeuristics:
				heur = "heuristics bypassed"
			}
			fmt.Fprintf(b, "  req %d replica %d: context %.3f -> %s -> ga %.2f (breed %.2f, eval %.2f, %d gens) -> materialize %.3f -> encode %.3f | replica %.2f, engine %.2f, unattributed %.3f (replica span self time %.3f)\n",
				ri, r.index, ms(r.context), heur, ms(r.ga), ms(r.breed), ms(r.eval), r.generations,
				ms(r.materialize), ms(r.encode), ms(r.composed), ms(r.engine),
				ms(r.unattributed()), ms(r.self))
		}
		fmt.Fprintf(b, "  req %d: store put %.3f ms (%d bytes); engine first emit %.2f ms\n",
			ri, ms(rr.storePut), len(rr.artifact), ms(rr.firstEmit))
		for _, m := range rr.mismatches {
			fmt.Fprintf(b, "  req %d MISMATCH: %s\n", ri, m)
		}
	}
	fmt.Fprintf(b, "store probe: get p50 %.1f us, p99 %.1f us; get under concurrent puts p50 %.1f us; put %.3f ms\n",
		us(sp.get50), us(sp.get99), us(sp.contended), ms(sp.put))
}
