// Package analysis implements the paper's Section 5 closed-form energy
// model: per-message broadcast and point-to-point costs (Equations 4–10)
// and the per-request energy of the flooding scheme (Equation 11) and of
// PReCinCt (Equation 13). The 9a and 9b grids (`precinct-sim -fig 9a`,
// `-fig 9b`) and the Figure 9 benchmarks print these curves next to the
// simulated ones.
package analysis

import (
	"fmt"
	"math"

	"precinct/internal/energy"
)

// Params are the network parameters entering the closed forms.
type Params struct {
	Model energy.Model
	// N is the number of nodes in the network.
	N int
	// AreaSide is the side of the square service area in meters.
	AreaSide float64
	// Range is the radio transmission range in meters.
	Range float64
	// Regions is the number of equal regions (PReCinCt only).
	Regions int
	// RequestBytes is the on-air size of a request/control message.
	RequestBytes int
	// ReplyBytes is the on-air size of the data response.
	ReplyBytes int
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.Model.Validate(); err != nil {
		return err
	}
	if p.N <= 0 {
		return fmt.Errorf("analysis: N must be positive, got %d", p.N)
	}
	if p.AreaSide <= 0 || p.Range <= 0 {
		return fmt.Errorf("analysis: area side and range must be positive")
	}
	if p.Regions <= 0 {
		return fmt.Errorf("analysis: regions must be positive, got %d", p.Regions)
	}
	if p.RequestBytes <= 0 || p.ReplyBytes <= 0 {
		return fmt.Errorf("analysis: message sizes must be positive")
	}
	return nil
}

// Density returns the node density delta = N/A (Equation 6).
func (p Params) Density() float64 {
	return float64(p.N) / (p.AreaSide * p.AreaSide)
}

// Zeta returns the expected number of nodes within transmission range of a
// sender (Equation 7): delta * pi * r².
func (p Params) Zeta() float64 {
	return p.Density() * math.Pi * p.Range * p.Range
}

// TotalBroadcast returns the total energy of one broadcast send plus its
// zeta receives (Equation 8), for a message of the given size.
func (p Params) TotalBroadcast(size int) float64 {
	return p.Model.BroadcastSend.Cost(size) + p.Zeta()*p.Model.BroadcastRecv.Cost(size)
}

// p2pHop is the energy of one point-to-point hop: a send plus the
// addressed receive (Equations 9 and 10).
func (p Params) p2pHop(size int) float64 {
	return p.Model.P2PSend.Cost(size) + p.Model.P2PRecv.Cost(size)
}

// Intermediates estimates I, the number of intermediate nodes between a
// random requester and the responder: the expected distance between two
// uniform points in the square (≈0.5214·side) divided by the range, minus
// the final hop, floored at zero.
func (p Params) Intermediates() float64 {
	const meanDistFactor = 0.5214 // E[dist] for a unit square
	hops := meanDistFactor * p.AreaSide / p.Range
	if hops < 1 {
		return 0
	}
	return hops - 1
}

// regionIntermediates estimates I for the region-routed legs of PReCinCt:
// the expected distance from a random point to a random region center.
// For equal grid partitions this is close to the global mean distance, so
// the same estimate applies.
func (p Params) regionIntermediates() float64 { return p.Intermediates() }

// NodesPerRegion returns n, the average number of nodes in a region.
func (p Params) NodesPerRegion() float64 {
	return float64(p.N) / float64(p.Regions)
}

// FloodingEnergy evaluates Equation 11: every node rebroadcasts the
// request once (N broadcasts with their receives), then the response
// travels back over I intermediate point-to-point hops.
func (p Params) FloodingEnergy() float64 {
	return float64(p.N)*p.TotalBroadcast(p.RequestBytes) +
		(p.Intermediates()+1)*p.p2pHop(p.ReplyBytes)
}

// PReCinCtEnergy evaluates Equation 13: the request travels I
// point-to-point hops to the home region, is flooded by the n nodes of
// that region, and the response travels I hops back.
func (p Params) PReCinCtEnergy() float64 {
	i := p.regionIntermediates()
	return (i+1)*p.p2pHop(p.RequestBytes) +
		p.NodesPerRegion()*p.TotalBroadcast(p.RequestBytes) +
		(i+1)*p.p2pHop(p.ReplyBytes)
}

// Point is one (x, y) sample of a theoretical curve.
type Point struct {
	X float64
	Y float64
}

// FloodingVsNodes returns Equation 11 evaluated over node counts — the
// theoretical series of Figure 9(a).
func FloodingVsNodes(base Params, nodes []int) ([]Point, error) {
	out := make([]Point, 0, len(nodes))
	for _, n := range nodes {
		p := base
		p.N = n
		if err := p.Validate(); err != nil {
			return nil, err
		}
		out = append(out, Point{X: float64(n), Y: p.FloodingEnergy()})
	}
	return out, nil
}

// PReCinCtVsNodes returns Equation 13 over node counts (Figure 9(a)).
func PReCinCtVsNodes(base Params, nodes []int) ([]Point, error) {
	out := make([]Point, 0, len(nodes))
	for _, n := range nodes {
		p := base
		p.N = n
		if err := p.Validate(); err != nil {
			return nil, err
		}
		out = append(out, Point{X: float64(n), Y: p.PReCinCtEnergy()})
	}
	return out, nil
}

// PReCinCtVsRegions returns Equation 13 over region counts (Figure 9(b)).
func PReCinCtVsRegions(base Params, regions []int) ([]Point, error) {
	out := make([]Point, 0, len(regions))
	for _, k := range regions {
		p := base
		p.Regions = k
		if err := p.Validate(); err != nil {
			return nil, err
		}
		out = append(out, Point{X: float64(k), Y: p.PReCinCtEnergy()})
	}
	return out, nil
}
