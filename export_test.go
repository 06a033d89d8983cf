package cold

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func exportNetwork(t *testing.T) *Network {
	t.Helper()
	nw, err := Generate(fastConfig(8, 6))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestExportAllFormats(t *testing.T) {
	nw := exportNetwork(t)
	for _, f := range []ExportFormat{ExportJSON, ExportDOT, ExportTSV} {
		var buf bytes.Buffer
		if err := nw.Export(&buf, f); err != nil {
			t.Fatalf("Export(%v): %v", f, err)
		}
		if buf.Len() == 0 {
			t.Errorf("Export(%v) wrote nothing", f)
		}
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	nw := exportNetwork(t)
	var buf bytes.Buffer
	if err := nw.Export(&buf, ExportJSON); err != nil {
		t.Fatal(err)
	}
	var decoded Network
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.N() != nw.N() || len(decoded.Links) != len(nw.Links) {
		t.Fatalf("round trip lost data: %d/%d PoPs, %d/%d links",
			decoded.N(), nw.N(), len(decoded.Links), len(nw.Links))
	}
	if decoded.Cost.Total != nw.Cost.Total {
		t.Fatalf("cost changed in round trip: %v vs %v", decoded.Cost.Total, nw.Cost.Total)
	}
}

func TestExportUnknownFormat(t *testing.T) {
	nw := exportNetwork(t)
	var buf bytes.Buffer
	if err := nw.Export(&buf, ExportFormat(99)); err == nil {
		t.Fatal("unknown format must error")
	}
}

func TestParseExportFormat(t *testing.T) {
	cases := []struct {
		name    string
		want    ExportFormat
		wantErr bool
	}{
		{"json", ExportJSON, false},
		{"dot", ExportDOT, false},
		{"tsv", ExportTSV, false},
		{"JSON", ExportJSON, false}, // case insensitive
		{"Dot", ExportDOT, false},
		{"xml", 0, true},
		{"", 0, true},
		{"jsonl", 0, true},
		{"ExportFormat(99)", 0, true}, // unknown String() must NOT round-trip
	}
	for _, c := range cases {
		got, err := ParseExportFormat(c.name)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseExportFormat(%q) should be rejected", c.name)
				continue
			}
			// The error must name every valid format.
			for _, valid := range []string{"json", "dot", "tsv"} {
				if !strings.Contains(err.Error(), valid) {
					t.Errorf("ParseExportFormat(%q) error %q does not list %q", c.name, err, valid)
				}
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseExportFormat(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	// String and ParseExportFormat round-trip for every defined format.
	for _, f := range []ExportFormat{ExportJSON, ExportDOT, ExportTSV} {
		back, err := ParseExportFormat(f.String())
		if err != nil || back != f {
			t.Errorf("round trip %v -> %q -> %v, %v", f, f.String(), back, err)
		}
	}
	if !strings.HasPrefix(ExportFormat(99).String(), "ExportFormat(") {
		t.Error("unknown format String() should be diagnostic")
	}
}

// TestDecodeAdjacencyLinearInLinks: decoding must not build an n×n
// adjacency for n points. That matrix took n+1 allocations and n² bytes,
// so a small artifact listing many points could exhaust memory; HasLink's
// index now grows with the links alone.
func TestDecodeAdjacencyLinearInLinks(t *testing.T) {
	const n = 4000
	var b strings.Builder
	b.WriteString(`{"points":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"X":0,"Y":0}`)
	}
	b.WriteString(`],"links":[{"A":3999,"B":7}]}`)
	data := []byte(b.String())
	var nw Network
	allocs := testing.AllocsPerRun(3, func() {
		nw = Network{}
		if err := json.Unmarshal(data, &nw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/10 {
		t.Fatalf("decoding %d points and one link takes %v allocations, want at most %d", n, allocs, n/10)
	}
	if !nw.HasLink(7, 3999) || !nw.HasLink(3999, 7) || nw.HasLink(0, 1) || nw.HasLink(7, 7) {
		t.Fatal("HasLink disagrees with the decoded links")
	}
	for _, pair := range [][2]int{{-1, 0}, {0, n}, {n, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HasLink(%d, %d) on %d PoPs must panic", pair[0], pair[1], n)
				}
			}()
			nw.HasLink(pair[0], pair[1])
		}()
	}
}
