package cost

import "fmt"

// Switch is a three-state toggle for evaluator features: Auto lets the
// evaluator pick based on the context size, ForceOn and ForceOff override
// the choice (tests use the forced states to pin each code path).
type Switch uint8

// Switch states.
const (
	Auto Switch = iota
	ForceOn
	ForceOff
)

// String renders the switch state.
func (s Switch) String() string {
	switch s {
	case Auto:
		return "auto"
	case ForceOn:
		return "on"
	case ForceOff:
		return "off"
	default:
		return fmt.Sprintf("Switch(%d)", uint8(s))
	}
}

// Defaults for the Options zero value.
const (
	// DefaultDeltaThreshold is the context size at which Auto enables the
	// incremental (delta) evaluation path. Below it a full sweep is cheap
	// enough that the bookkeeping isn't worth the memory.
	DefaultDeltaThreshold = 64

	// DefaultDeltaEdgeBudget is the largest changed-edge set CostDelta and
	// EvaluateDelta attempt incrementally; larger edits (e.g. crossover
	// offspring far from both parents) go straight to the full sweep.
	DefaultDeltaEdgeBudget = 8

	// DefaultMaxBases is how many routing-table bases the delta path
	// retains (see Options.MaxBases). Four covers the GA's working set —
	// the elite parents that keep producing offspring generation after
	// generation — without the memory growing past a few full tables.
	DefaultMaxBases = 4
)

// Options tune how the Evaluator evaluates. The zero value is the
// production default: the incremental delta path on Auto, with the default
// threshold, edge budget and base cap. All selections change only
// speed and memory — every path returns bit-identical costs, loads and
// routing (the equivalence test suite enforces this).
type Options struct {
	// Delta controls the incremental evaluation path (CostDelta,
	// EvaluateDelta): Auto enables it for contexts with at least
	// DeltaThreshold PoPs, ForceOn/ForceOff pin it. When off, the delta
	// entry points silently run full sweeps.
	Delta Switch

	// DeltaThreshold overrides the Auto enable size; 0 means
	// DefaultDeltaThreshold.
	DeltaThreshold int

	// DeltaEdgeBudget bounds how many changed edges the delta path accepts
	// before falling back to a full sweep; 0 means DefaultDeltaEdgeBudget.
	DeltaEdgeBudget int

	// MaxBases bounds how many routing-table bases the delta path retains
	// (least-recently-used eviction). Each base holds the full per-source
	// distance/parent/order tables of one graph (~16·n² bytes), and
	// CostDelta/EvaluateDelta pick whichever retained base is nearest the
	// requested graph by edge-set difference — so crossover offspring can
	// delta against either parent and elite parents stay primed across
	// generations. 0 means DefaultMaxBases; 1 reproduces the single-base
	// behavior of earlier releases. Like every option, the setting changes
	// speed and memory only, never results.
	MaxBases int
}

// Validate rejects unknown switch states and negative thresholds.
func (o Options) Validate() error {
	if o.Delta > ForceOff {
		return fmt.Errorf("cost: options: unknown Delta switch %d", o.Delta)
	}
	for _, v := range []struct {
		name string
		val  int
	}{{"DeltaThreshold", o.DeltaThreshold}, {"DeltaEdgeBudget", o.DeltaEdgeBudget}, {"MaxBases", o.MaxBases}} {
		if v.val < 0 {
			return fmt.Errorf("cost: options: negative %s %d", v.name, v.val)
		}
	}
	return nil
}

// deltaThreshold resolves the Auto enable size.
func (o Options) deltaThreshold() int {
	if o.DeltaThreshold > 0 {
		return o.DeltaThreshold
	}
	return DefaultDeltaThreshold
}

// deltaEdgeBudget resolves the changed-edge budget.
func (o Options) deltaEdgeBudget() int {
	if o.DeltaEdgeBudget > 0 {
		return o.DeltaEdgeBudget
	}
	return DefaultDeltaEdgeBudget
}

// maxBases resolves the retained-base cap.
func (o Options) maxBases() int {
	if o.MaxBases > 0 {
		return o.MaxBases
	}
	return DefaultMaxBases
}

// enabled resolves a switch against the Auto rule "on when n >= threshold".
func (s Switch) enabled(n, threshold int) bool {
	switch s {
	case ForceOn:
		return true
	case ForceOff:
		return false
	default:
		return n >= threshold
	}
}
