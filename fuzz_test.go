package cold

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzConfigHash feeds arbitrary bytes through the request path of
// cmd/coldd — strict JSON decoding of {"config": …, "count": …}, then
// Validate, Canonical and Hash — and checks that the path never panics,
// that a config which validates always canonicalizes and hashes, that both
// are deterministic, and that the hash ignores the execution-only
// Parallelism and RunID fields. Run locally with e.g.
//
//	go test . -run '^$' -fuzz FuzzConfigHash -fuzztime 30s
func FuzzConfigHash(f *testing.F) {
	f.Add([]byte(`{"config":{"NumPoPs":20,"Seed":1},"count":4}`))
	f.Add([]byte(`{"config":{"NumPoPs":30,"Seed":7,"Parallelism":2,"RunID":"r1","Optimizer":{"PopulationSize":100,"Generations":100,"SeedWithHeuristics":true}}}`))
	f.Add([]byte(`{"config":{"NumPoPs":3,"Locations":{"Kind":3,"Points":[{"X":0,"Y":0},{"X":1,"Y":0},{"X":0,"Y":1}]},"Traffic":{"Kind":3,"Populations":[1,2,3]}}}`))
	f.Add([]byte(`{"config":{"NumPoPs":8,"Params":{"K0":10,"K1":1,"K2":0.001,"K3":5},"Locations":{"Kind":1,"Clusters":3,"Sigma":0.1},"Traffic":{"Kind":1,"ParetoShape":2}}}`))
	f.Add([]byte(`{"config":{"NumPoPs":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req struct {
			Config Config `json:"config"`
			Count  int    `json:"count"`
		}
		if err := dec.Decode(&req); err != nil {
			return
		}
		cfg := req.Config
		if err := cfg.Validate(); err != nil {
			if _, herr := cfg.Hash(); herr == nil {
				t.Fatalf("Hash accepted a config Validate rejects: %v", err)
			}
			return
		}
		canon, err := cfg.Canonical()
		if err != nil {
			t.Fatalf("Canonical failed on a valid config: %v", err)
		}
		if again, _ := cfg.Canonical(); !bytes.Equal(canon, again) {
			t.Fatalf("Canonical not deterministic:\n%s\n%s", canon, again)
		}
		hash, err := cfg.Hash()
		if err != nil {
			t.Fatalf("Hash failed on a valid config: %v", err)
		}
		if again, _ := cfg.Hash(); again != hash {
			t.Fatalf("Hash not deterministic: %s vs %s", hash, again)
		}
		exec := cfg
		exec.Parallelism, exec.RunID = 1, cfg.RunID+"-other"
		if cfg.Parallelism == 1 {
			exec.Parallelism = 2
		}
		if h, err := exec.Hash(); err != nil || h != hash {
			t.Fatalf("Hash depends on Parallelism/RunID: %s vs %s (%v)", h, hash, err)
		}
	})
}

// FuzzNetworkJSON feeds arbitrary bytes to Network.UnmarshalJSON — the
// decoder for stored artifacts — and checks that it never panics and that
// whatever it accepts re-encodes stably: MarshalJSON → UnmarshalJSON →
// MarshalJSON gives the same bytes. Run locally with e.g.
//
//	go test . -run '^$' -fuzz FuzzNetworkJSON -fuzztime 30s
func FuzzNetworkJSON(f *testing.F) {
	nw, err := Generate(Config{NumPoPs: 6, Seed: 3, Optimizer: OptimizerSpec{PopulationSize: 8, Generations: 4}})
	if err != nil {
		f.Fatal(err)
	}
	generated, err := json.Marshal(nw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(generated)
	f.Add([]byte(`{"points":[{"X":0,"Y":0},{"X":1,"Y":0}],"populations":[1,2],"links":[{"A":0,"B":1}],"Cost":{},"stats":{}}`))
	f.Add([]byte(`{"points":[],"links":[{"A":0,"B":1}]}`))
	f.Add([]byte(`{"points":null,"demand":[[0,1],[1]],"history":[1e308,-0]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var first Network
		if first.UnmarshalJSON(data) != nil {
			return
		}
		enc, err := first.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encoding a decoded network failed: %v", err)
		}
		var second Network
		if err := second.UnmarshalJSON(enc); err != nil {
			t.Fatalf("decoding our own encoding failed: %v\n%s", err, enc)
		}
		again, err := second.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encoding the round-tripped network failed: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encoding not stable across a round trip:\n%s\n%s", enc, again)
		}
	})
}
