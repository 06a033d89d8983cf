package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// FuzzTraceParse feeds arbitrary bytes to the `coldstats trace` parser and
// report, since trace files are untrusted input: parseTrace either rejects
// them with an error or returns runs that printRun reports without
// panicking or running away, whatever generation, replica and duration
// values a line claims. Seeded from the parser tests' fixtures and a
// recorded trace. Run locally with e.g.
//
//	go test ./cmd/coldstats -run '^$' -fuzz FuzzTraceParse -fuzztime 30s
func FuzzTraceParse(f *testing.F) {
	recorded, err := os.ReadFile(recordTrace(f, "fuzz-seed", 2))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		traceV1,
		traceV1 + traceV1,
		traceV1[:len(traceV1)/2],
		traceHeadless,
		string(recorded),
		`{"v":1,"event":"generation","replica":-4,"gen":9223372036854775807,"best":2}` + "\n" +
			`{"v":1,"event":"generation","replica":0,"gen":0,"best":3}`,
		`{"v":99,"event":"run_start"}`,
		"{not json}\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, _, err := parseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, tr := range runs {
			printRun(io.Discard, i, tr, 0)
			printRun(io.Discard, i, tr, 1)
		}
	})
}
