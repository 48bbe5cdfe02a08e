package cache

import (
	"fmt"
	"sort"
)

// Params carries the knobs a policy constructor may consume. The zero value
// selects each policy's documented defaults, so NewPolicy(name, Params{})
// always works for every name.
type Params struct {
	// Weights are the utility weights for the weighted policies (GD-LD,
	// popularity×distance). The zero value selects DefaultWeights.
	Weights Weights
}

// weightsOrDefault resolves the zero value to the documented defaults.
func (p Params) weightsOrDefault() Weights {
	if p.Weights == (Weights{}) {
		return DefaultWeights()
	}
	return p.Weights
}

// policies maps each policy name to its constructor. Constructors
// validate their inputs and return stateless policies: one policy value
// is shared by every peer of a run.
var policies = map[string]func(Params) (Policy, error){
	"gd-ld":    func(p Params) (Policy, error) { return NewGDLD(p.weightsOrDefault()) },
	"gd-size":  func(Params) (Policy, error) { return GDSize{}, nil },
	"lru":      func(Params) (Policy, error) { return LRU{}, nil },
	"lfu":      func(Params) (Policy, error) { return LFU{}, nil },
	"gdsf":     func(Params) (Policy, error) { return GDSF{}, nil },
	"pop-dist": func(p Params) (Policy, error) { return NewPopDist(p.weightsOrDefault()) },
	"pop-rank": func(Params) (Policy, error) { return PopRank{}, nil },
}

// NewPolicy builds a policy by name. The error lists the known names so
// CLI typos are self-diagnosing.
func NewPolicy(name string, p Params) (Policy, error) {
	f, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("cache: unknown policy %q (known: %v)", name, Names())
	}
	return f(p)
}

// Names returns every policy name in sorted order. Test suites iterate
// this so a newly added policy is automatically pulled through the
// heap/linear differential replay and the contract battery.
func Names() []string {
	out := make([]string, 0, len(policies))
	for name := range policies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
