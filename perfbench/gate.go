package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	cold "github.com/networksynth/cold"
)

// checkArtifact is the output gate for one response body: exactly count
// newline-terminated lines, each decoding as a connected cold.Network with
// the requested number of PoPs.
func checkArtifact(body []byte, r *request) error {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return fmt.Errorf("%s: body is empty or not newline-terminated (truncated?)", r.hash[:12])
	}
	lines := bytes.Split(body[:len(body)-1], []byte("\n"))
	if len(lines) != count {
		return fmt.Errorf("%s: %d lines, want %d", r.hash[:12], len(lines), count)
	}
	for i, line := range lines {
		var nw cold.Network
		if err := json.Unmarshal(line, &nw); err != nil {
			return fmt.Errorf("%s line %d: %w", r.hash[:12], i, err)
		}
		if nw.N() != r.cfg.NumPoPs {
			return fmt.Errorf("%s line %d: %d PoPs, want %d", r.hash[:12], i, nw.N(), r.cfg.NumPoPs)
		}
		if !connected(&nw) {
			return fmt.Errorf("%s line %d: network is not connected", r.hash[:12], i)
		}
	}
	return nil
}

// connected reports whether the network's links join all its PoPs.
func connected(nw *cold.Network) bool {
	n := nw.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := n
	for _, l := range nw.Links {
		if a, b := find(l.A), find(l.B); a != b {
			parent[a] = b
			comps--
		}
	}
	return comps <= 1
}

// serialArtifact generates r's ensemble in-process, serially, and encodes
// it exactly as coldd stores it: json.Marshal per network, one per line.
func serialArtifact(r *request) ([]byte, error) {
	cfg := r.cfg
	cfg.Parallelism = 1
	var buf bytes.Buffer
	err := cold.GenerateEnsembleStream(context.Background(), cfg, count, func(_ int, nw *cold.Network) error {
		line, err := json.Marshal(nw)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
		return nil
	})
	return buf.Bytes(), err
}

// gateWindow applies the output gate to a finished window and returns the
// number of failed requests with their reasons. Misses and shares are
// decoded and checked in full; a share must equal the bytes of the miss it
// joined; refs seed-chosen misses must be byte-identical to a serial
// in-process run (computed here, after the timed window). Hits were
// compared with their recorded bytes as they arrived.
func gateWindow(win *window, refs int, rng *rand.Rand) (failed int, reasons []string) {
	missBody := map[string][]byte{}
	var missIdx []int
	for i := range win.samples {
		s := &win.samples[i]
		if s.err == nil && s.class == classMiss {
			if s.err = checkArtifact(s.body, s.req); s.err == nil {
				missBody[s.req.hash] = s.body
				missIdx = append(missIdx, i)
			}
		}
	}
	for i := range win.samples {
		s := &win.samples[i]
		if s.err == nil && s.class == classShare {
			if s.err = checkArtifact(s.body, s.req); s.err == nil && !bytes.Equal(s.body, missBody[s.req.hash]) {
				s.err = fmt.Errorf("%s: shared body differs from the miss it joined", s.req.hash[:12])
			}
		}
	}
	// Reference runs: the sample is drawn from the misses that passed; the
	// runs go in parallel, each serial inside.
	rng.Shuffle(len(missIdx), func(i, j int) { missIdx[i], missIdx[j] = missIdx[j], missIdx[i] })
	missIdx = missIdx[:min(refs, len(missIdx))]
	errs := make([]error, len(missIdx))
	var wg sync.WaitGroup
	for k, i := range missIdx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &win.samples[i]
			want, err := serialArtifact(s.req)
			switch {
			case err != nil:
				errs[k] = fmt.Errorf("reference run: %w", err)
			case !bytes.Equal(s.body, want):
				errs[k] = fmt.Errorf("%s: response differs from the serial in-process run", s.req.hash[:12])
			}
		}()
	}
	wg.Wait()
	for k, i := range missIdx {
		if errs[k] != nil {
			win.samples[i].err = errs[k]
		}
	}
	for _, s := range win.samples {
		if s.err != nil {
			failed++
			if len(reasons) < 10 {
				reasons = append(reasons, fmt.Sprintf("%s request: %v", s.class, s.err))
			}
		}
	}
	return failed, reasons
}
