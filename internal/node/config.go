// Package node implements the peer protocol layer of the simulator: the
// PReCinCt search process (local cache → regional broadcast → GPSR route
// to the home region → localized flood → routed response), the flooding
// and expanding-ring retrieval baselines, the cooperative-cache admission
// control and replacement hooks, the three consistency schemes' message
// choreography, inter-region mobility key handoff, and the replica-region
// fault-tolerance mechanism.
package node

import (
	"fmt"

	"precinct/internal/cache"
	"precinct/internal/consistency"
	"precinct/internal/region"
)

// RetrievalScheme selects the data retrieval protocol.
type RetrievalScheme int

// The retrieval schemes the paper compares.
const (
	// PReCinCt is the paper's region-based scheme.
	PReCinCt RetrievalScheme = iota
	// Flooding broadcasts every request through the whole network.
	Flooding
	// ExpandingRing floods with growing TTLs until the data is found.
	ExpandingRing
)

// String implements fmt.Stringer.
func (s RetrievalScheme) String() string {
	switch s {
	case PReCinCt:
		return "precinct"
	case Flooding:
		return "flooding"
	case ExpandingRing:
		return "expanding-ring"
	default:
		return fmt.Sprintf("retrieval(%d)", int(s))
	}
}

// ParseRetrievalScheme converts a name back to a scheme.
func ParseRetrievalScheme(name string) (RetrievalScheme, error) {
	switch name {
	case "precinct":
		return PReCinCt, nil
	case "flooding":
		return Flooding, nil
	case "expanding-ring":
		return ExpandingRing, nil
	default:
		return PReCinCt, fmt.Errorf("node: unknown retrieval scheme %q", name)
	}
}

// Config parameterizes the protocol layer of one simulation run.
type Config struct {
	Retrieval   RetrievalScheme
	Consistency consistency.Config

	// Policy is the dynamic-cache replacement policy shared by all
	// peers (policies are stateless).
	Policy cache.Policy
	// CacheBytes is the dynamic cache capacity per peer in bytes.
	// Zero disables dynamic caching (the Section 5 validation setup).
	CacheBytes int64

	// EnRoute lets peers on the path to the home region answer requests
	// from their caches (Section 3.1).
	EnRoute bool
	// Replicas is the number of replica regions per key (Section 2.4):
	// the rank-r replica (1 <= r <= Replicas) lives in the (r+1)-th
	// nearest region to the key's hash location. 0 maintains none, 1 is
	// the paper's single replica region, and values above 1 home each key
	// in the k best regions with load-aware replica placement (DESIGN.md
	// section 16). Capped at region.MaxReplicaRank.
	Replicas int

	// Warmup discards metrics for requests issued before this sim time,
	// letting caches fill first. Seconds.
	Warmup float64
}

// DefaultConfig returns the scenario defaults used by the paper's mobile
// experiments.
func DefaultConfig() Config {
	p, err := cache.NewGDLD(cache.DefaultWeights())
	if err != nil {
		panic(err) // default weights are valid by construction
	}
	return Config{
		Retrieval:   PReCinCt,
		Consistency: consistency.DefaultConfig(consistency.None),
		Policy:      p,
		CacheBytes:  64 * 1024,
		EnRoute:     true,
		Replicas:    1,
		Warmup:      200,
	}
}

// The protocol's fixed TTLs, timeouts and sizes (PAPER.md section 1
// item 3).
const (
	// regionTTL bounds intra-region floods in hops.
	regionTTL = 4
	// networkTTL bounds network-wide floods (flooding retrieval,
	// plain-push invalidations).
	networkTTL = 16
	// maxRingTTL caps the expanding-ring search.
	maxRingTTL = 16
	// maxRouteHops caps GPSR-routed messages; perimeter walks over a
	// changing topology can otherwise wander indefinitely.
	maxRouteHops = 48

	// regionalTimeout is how long a requester waits for an answer from
	// its own region before contacting the home region, seconds.
	regionalTimeout = 0.15
	// remoteTimeout is how long it waits for the home (or replica)
	// region, seconds.
	remoteTimeout = 1.5
	// ringTimeout is the per-round wait of the expanding-ring search,
	// seconds (scaled by the round's TTL).
	ringTimeout = 0.25

	// mobilityCheckInterval is how often peers check whether they have
	// crossed a region boundary, seconds.
	mobilityCheckInterval = 1.0

	// controlBytes is the on-air size of small protocol messages
	// (requests, polls, invalidations, handoff headers).
	controlBytes = 64
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Retrieval < PReCinCt || c.Retrieval > ExpandingRing {
		return fmt.Errorf("node: unknown retrieval scheme %d", int(c.Retrieval))
	}
	if err := c.Consistency.Validate(); err != nil {
		return err
	}
	if c.Policy == nil {
		return fmt.Errorf("node: nil cache policy")
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("node: negative cache capacity %d", c.CacheBytes)
	}
	if c.Replicas < 0 || c.Replicas > region.MaxReplicaRank {
		return fmt.Errorf("node: replica count %d outside [0, %d]", c.Replicas, region.MaxReplicaRank)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("node: negative warmup")
	}
	return nil
}
