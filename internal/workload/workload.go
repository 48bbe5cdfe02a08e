// Package workload generates the synthetic access patterns from the
// paper's Section 6.1: every peer issues requests whose inter-arrival
// times follow a Poisson process (exponential gaps, mean 30 s by default)
// and whose targets follow a Zipf distribution over a fixed catalog of
// data items; updates arrive as an independent Poisson process. The
// arrival process (Arrivals) is one for every workload; a Source only
// picks keys.
//
// The catalog replaces the paper's unspecified "database": item sizes are
// drawn deterministically per key so that every scheme in a comparison
// sees exactly the same data set.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf samples ranks 1..n with probability proportional to 1/rank^theta.
// theta = 0 degenerates to uniform; larger theta skews toward low ranks.
//
// The stdlib rand.Zipf requires s > 1, which excludes the range the paper
// sweeps (skew parameters are conventionally 0..1 in the caching
// literature), so we implement inverse-CDF sampling over the finite
// support instead.
type Zipf struct {
	n     int
	theta float64
	cdf   []float64 // cdf[i] = P(rank <= i+1)
}

// NewZipf returns a sampler over ranks 1..n with skew theta >= 0.
func NewZipf(n int, theta float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf support must be positive, got %d", n)
	}
	if theta < 0 || math.IsNaN(theta) {
		return nil, fmt.Errorf("workload: zipf skew must be >= 0, got %v", theta)
	}
	z := &Zipf{n: n, theta: theta, cdf: make([]float64, n)}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
		z.cdf[i-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	z.cdf[n-1] = 1 // guard against rounding leaving the last bin short
	return z, nil
}

// N returns the support size.
func (z *Zipf) N() int { return z.n }

// Theta returns the skew parameter.
func (z *Zipf) Theta() float64 { return z.theta }

// Rank draws a rank in [1, n].
func (z *Zipf) Rank(rng *rand.Rand) int {
	u := rng.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Prob returns the probability mass of the given rank.
func (z *Zipf) Prob(rank int) float64 {
	if rank < 1 || rank > z.n {
		return 0
	}
	if rank == 1 {
		return z.cdf[0]
	}
	return z.cdf[rank-1] - z.cdf[rank-2]
}

// Poisson models an arrival process with exponentially distributed gaps.
type Poisson struct {
	mean float64
}

// NewPoisson returns a process with the given mean inter-arrival time in
// seconds.
func NewPoisson(meanInterval float64) (*Poisson, error) {
	if meanInterval <= 0 || math.IsNaN(meanInterval) || math.IsInf(meanInterval, 0) {
		return nil, fmt.Errorf("workload: poisson mean interval must be positive and finite, got %v", meanInterval)
	}
	return &Poisson{mean: meanInterval}, nil
}

// Mean returns the configured mean inter-arrival time.
func (p *Poisson) Mean() float64 { return p.mean }

// Next draws the gap to the next arrival in seconds. The product is
// rounded here, so no target fuses it into the caller's now+gap.
func (p *Poisson) Next(rng *rand.Rand) float64 {
	return float64(rng.ExpFloat64() * p.mean)
}

// Key identifies a data item in the shared catalog.
type Key uint32

// Item describes one entry of the catalog.
type Item struct {
	Key  Key
	Size int // bytes
}

// Catalog is the fixed set of data items shared by the whole network.
// Sizes are derived deterministically from the key so that two catalogs
// built with the same parameters are identical.
type Catalog struct {
	items     []Item
	totalSize int64
}

// CatalogConfig parameterizes catalog construction.
type CatalogConfig struct {
	Items   int // number of distinct data items
	MinSize int // bytes, inclusive
	MaxSize int // bytes, inclusive
}

// DefaultCatalogConfig mirrors the scale used in the paper's simulations:
// a database of 1000 items with sizes around a few kilobytes.
func DefaultCatalogConfig() CatalogConfig {
	return CatalogConfig{Items: 1000, MinSize: 1024, MaxSize: 10 * 1024}
}

// NewCatalog builds the item set. Item sizes are spread over
// [MinSize, MaxSize] by hashing the key, so they are independent of access
// order and of the RNG streams used elsewhere.
func NewCatalog(cfg CatalogConfig) (*Catalog, error) {
	if cfg.Items <= 0 {
		return nil, fmt.Errorf("workload: catalog needs at least one item, got %d", cfg.Items)
	}
	if cfg.MinSize <= 0 || cfg.MaxSize < cfg.MinSize {
		return nil, fmt.Errorf("workload: invalid size range [%d, %d]", cfg.MinSize, cfg.MaxSize)
	}
	c := &Catalog{items: make([]Item, cfg.Items)}
	span := cfg.MaxSize - cfg.MinSize + 1
	for i := range c.items {
		k := Key(i)
		size := cfg.MinSize + int(keyHash(k)%uint64(span))
		c.items[i] = Item{Key: k, Size: size}
		c.totalSize += int64(size)
	}
	return c, nil
}

// keyHash is FNV-1a over the key's four bytes; shared with the geographic
// hash in internal/region so a key's identity is uniform everywhere.
func keyHash(k Key) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for shift := 0; shift < 32; shift += 8 {
		h ^= uint64(byte(k >> shift))
		h *= prime64
	}
	return h
}

// KeyHash exposes the canonical 64-bit hash of a key.
func KeyHash(k Key) uint64 { return keyHash(k) }

// Len returns the number of items.
func (c *Catalog) Len() int { return len(c.items) }

// TotalSize returns the sum of all item sizes in bytes.
func (c *Catalog) TotalSize() int64 { return c.totalSize }

// Item returns the catalog entry for a key.
func (c *Catalog) Item(k Key) (Item, bool) {
	if int(k) >= len(c.items) {
		return Item{}, false
	}
	return c.items[k], true
}

// Size returns the size in bytes of the item for key k, or 0 if the key is
// not in the catalog.
func (c *Catalog) Size(k Key) int {
	if int(k) >= len(c.items) {
		return 0
	}
	return c.items[k].Size
}

// Keys returns all keys in ascending order. The returned slice is fresh
// and may be mutated by the caller.
func (c *Catalog) Keys() []Key {
	keys := make([]Key, len(c.items))
	for i := range c.items {
		keys[i] = Key(i)
	}
	return keys
}

// Arrivals is the one arrival process every workload shares: each peer's
// requests, and its updates when they are enabled, are independent
// Poisson processes. Sources choose keys only, so a flash crowd, a
// diurnal drift or a moving hotspot changes what is asked for, never when.
type Arrivals struct {
	requests *Poisson
	updates  *Poisson // nil when updates are disabled
}

// NewArrivals validates the mean gaps, in seconds per peer, and builds the
// process. updateInterval 0 disables updates.
func NewArrivals(requestInterval, updateInterval float64) (*Arrivals, error) {
	req, err := NewPoisson(requestInterval)
	if err != nil {
		return nil, fmt.Errorf("workload: request process: %w", err)
	}
	if updateInterval < 0 || math.IsNaN(updateInterval) {
		return nil, fmt.Errorf("workload: update interval must be >= 0 (0 disables updates), got %v", updateInterval)
	}
	a := &Arrivals{requests: req}
	if updateInterval > 0 {
		if a.updates, err = NewPoisson(updateInterval); err != nil {
			return nil, fmt.Errorf("workload: update process: %w", err)
		}
	}
	return a, nil
}

// NextRequestGap draws the time until the peer's next request.
func (a *Arrivals) NextRequestGap(rng *rand.Rand) float64 { return a.requests.Next(rng) }

// UpdatesEnabled reports whether the scenario generates updates at all.
func (a *Arrivals) UpdatesEnabled() bool { return a.updates != nil }

// NextUpdateGap draws the time until the peer's next update. It panics if
// updates are disabled; call UpdatesEnabled first.
func (a *Arrivals) NextUpdateGap(rng *rand.Rand) float64 {
	if a.updates == nil {
		panic("workload: updates disabled")
	}
	return a.updates.Next(rng)
}

// Generator is the stationary workload of Section 6.1 over one catalog:
// Zipf request popularity, a separate (usually flatter) Zipf over update
// targets, and the Arrivals that time both. The non-stationary sources
// perturb its key draws.
type Generator struct {
	catalog   *Catalog
	popular   *Zipf
	updateKey *Zipf
	arrivals  *Arrivals
}

// GeneratorConfig parameterizes a Generator.
type GeneratorConfig struct {
	Catalog         *Catalog
	ZipfTheta       float64 // request skew
	UpdateZipfTheta float64 // update target skew; 0 = uniform across items
	RequestInterval float64 // mean seconds between requests per peer
	UpdateInterval  float64 // mean seconds between updates per peer; 0 disables updates
}

// NewGenerator validates the configuration and builds the generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("workload: generator requires a catalog")
	}
	z, err := NewZipf(cfg.Catalog.Len(), cfg.ZipfTheta)
	if err != nil {
		return nil, err
	}
	uz, err := NewZipf(cfg.Catalog.Len(), cfg.UpdateZipfTheta)
	if err != nil {
		return nil, fmt.Errorf("workload: update key distribution: %w", err)
	}
	arr, err := NewArrivals(cfg.RequestInterval, cfg.UpdateInterval)
	if err != nil {
		return nil, err
	}
	return &Generator{catalog: cfg.Catalog, popular: z, updateKey: uz, arrivals: arr}, nil
}

// Catalog returns the shared catalog.
func (g *Generator) Catalog() *Catalog { return g.catalog }

// Arrivals returns the arrival process built from the configured
// intervals; every source wrapping this generator runs on it.
func (g *Generator) Arrivals() *Arrivals { return g.arrivals }

// PickKey draws a request key by popularity. Zipf rank r maps to
// Key(r-1): key 0 is the most popular item.
func (g *Generator) PickKey(rng *rand.Rand) Key {
	return Key(g.popular.Rank(rng) - 1)
}

// PickUpdateKey draws the target of an update, using the (usually less
// skewed) update-key distribution.
func (g *Generator) PickUpdateKey(rng *rand.Rand) Key {
	return Key(g.updateKey.Rank(rng) - 1)
}
