package cold

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// networkJSON is the stable on-disk representation of a Network.
type networkJSON struct {
	Points      []Point     `json:"points"`
	Populations []float64   `json:"populations"`
	Demand      [][]float64 `json:"demand,omitempty"`
	Links       []Link      `json:"links"`
	Cost        CostBreakdown
	Stats       Stats     `json:"stats"`
	History     []float64 `json:"history,omitempty"`
}

// MarshalJSON encodes the network, including points, populations, links
// with capacities, the cost breakdown and summary statistics.
func (nw *Network) MarshalJSON() ([]byte, error) {
	return json.Marshal(networkJSON{
		Points:      nw.Points,
		Populations: nw.Populations,
		Demand:      nw.Demand,
		Links:       nw.Links,
		Cost:        nw.Cost,
		Stats:       nw.Stats(),
		History:     nw.History,
	})
}

// UnmarshalJSON decodes a network previously written by MarshalJSON. The
// routing tables are not serialized; Path is unavailable on decoded
// networks (it reports no route).
func (nw *Network) UnmarshalJSON(data []byte) error {
	var raw networkJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("cold: decoding network: %w", err)
	}
	n := len(raw.Points)
	for _, l := range raw.Links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return fmt.Errorf("cold: link (%d,%d) out of range for %d PoPs", l.A, l.B, n)
		}
	}
	nw.Points = raw.Points
	nw.Populations = raw.Populations
	nw.Demand = raw.Demand
	nw.Links = raw.Links
	nw.Cost = raw.Cost
	nw.History = raw.History
	nw.linkKeys = indexLinks(nw.Links)
	nw.routing = nil
	nw.stats.N = raw.Stats.NumPoPs
	nw.stats.Edges = raw.Stats.NumLinks
	nw.stats.AverageDegree = raw.Stats.AverageDegree
	nw.stats.DegreeCV = raw.Stats.DegreeCV
	nw.stats.Diameter = raw.Stats.Diameter
	nw.stats.Clustering = raw.Stats.Clustering
	nw.stats.Hubs = raw.Stats.Hubs
	nw.stats.Leaves = raw.Stats.Leaves
	nw.stats.AvgPathLen = raw.Stats.AvgPathLen
	return nil
}

// ExportFormat selects the serialization used by Network.Export.
type ExportFormat int

// Export formats.
const (
	// ExportJSON is the stable JSON representation (MarshalJSON),
	// indented; it round-trips through UnmarshalJSON.
	ExportJSON ExportFormat = iota
	// ExportDOT is Graphviz DOT: PoPs positioned at their coordinates,
	// links labeled with capacity.
	ExportDOT
	// ExportTSV is one link per line: a, b, length, capacity.
	ExportTSV
)

// exportFormatNames is the single source of format names: String,
// ParseExportFormat and the parse error's valid-name list all derive from
// it, so the three can never drift apart.
var exportFormatNames = [...]string{
	ExportJSON: "json",
	ExportDOT:  "dot",
	ExportTSV:  "tsv",
}

// String returns the format's canonical lower-case name — the exact
// spelling ParseExportFormat accepts, so the two round-trip.
func (f ExportFormat) String() string {
	if f >= 0 && int(f) < len(exportFormatNames) {
		return exportFormatNames[f]
	}
	return fmt.Sprintf("ExportFormat(%d)", int(f))
}

// ParseExportFormat maps a format name ("json", "dot", "tsv"; case
// insensitive) to its ExportFormat, for wiring Export to command-line
// flags. Unknown names are rejected with an error listing every valid
// name. ParseExportFormat(f.String()) == f for all defined formats.
func ParseExportFormat(name string) (ExportFormat, error) {
	lower := strings.ToLower(name)
	for f, n := range exportFormatNames {
		if lower == n {
			return ExportFormat(f), nil
		}
	}
	return 0, fmt.Errorf("cold: unknown export format %q (valid formats: %s)",
		name, strings.Join(exportFormatNames[:], ", "))
}

// Export writes the network to w in the given format. It is the single
// entry point for all serializations.
func (nw *Network) Export(w io.Writer, format ExportFormat) error {
	switch format {
	case ExportJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(nw)
	case ExportDOT:
		return nw.writeDOT(w)
	case ExportTSV:
		return nw.writeTSV(w)
	default:
		return fmt.Errorf("cold: unknown export format %d (valid formats: %s)",
			int(format), strings.Join(exportFormatNames[:], ", "))
	}
}

func (nw *Network) writeDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("graph cold {\n")
	b.WriteString("  node [shape=circle];\n")
	for i, p := range nw.Points {
		fmt.Fprintf(&b, "  %d [pos=\"%.4f,%.4f!\"];\n", i, p.X, p.Y)
	}
	for _, l := range nw.Links {
		fmt.Fprintf(&b, "  %d -- %d [label=\"%.1f\"];\n", l.A, l.B, l.Capacity)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func (nw *Network) writeTSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("a\tb\tlength\tcapacity\n")
	for _, l := range nw.Links {
		fmt.Fprintf(&b, "%d\t%d\t%.6f\t%.6f\n", l.A, l.B, l.Length, l.Capacity)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
