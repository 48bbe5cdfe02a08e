package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Non-stationary sources. Each wraps the stationary Generator for its
// arrival processes and base popularity, and perturbs the key choice in
// a way the paper's GD-LD utility and TTR consistency were never tuned
// for: a sudden flash-crowd hotset, smooth diurnal rank rotation,
// geo-correlated per-region popularity, and the popularity-rank churn
// of Wang et al. (DTN cooperative caching, PAPERS.md). All randomness
// flows through Ctx.RNG or a stream registered at build time, so every
// source replays deterministically.

// FlashCrowdConfig parameterizes NewFlashCrowd.
type FlashCrowdConfig struct {
	Gen *Generator
	// At and Duration bound the flash window [At, At+Duration).
	At       float64
	Duration float64
	// Hotset is how many keys catch fire; they are drawn from the cold
	// half of the catalog (clamped to it), where the paper's popularity
	// priors are most wrong.
	Hotset int
	// Boost is the probability a request inside the window targets the
	// hotset instead of the base distribution.
	Boost float64
	// Seed derives the hotset membership (no RNG stream is consumed).
	Seed int64
}

// FlashCrowd turns a deterministic hotset of previously cold keys
// suddenly popular for a bounded window, then reverts.
type FlashCrowd struct {
	gen   *Generator
	at    float64
	until float64
	boost float64
	hot   []Key
}

// NewFlashCrowd validates the configuration and builds the source.
func NewFlashCrowd(cfg FlashCrowdConfig) (*FlashCrowd, error) {
	if cfg.Gen == nil {
		return nil, fmt.Errorf("workload: flash crowd requires a generator")
	}
	if cfg.Duration <= 0 || cfg.At < 0 {
		return nil, fmt.Errorf("workload: flash window [%v, +%v) invalid", cfg.At, cfg.Duration)
	}
	if cfg.Boost < 0 || cfg.Boost > 1 {
		return nil, fmt.Errorf("workload: flash boost %v outside [0, 1]", cfg.Boost)
	}
	n := cfg.Gen.Catalog().Len()
	coldStart := n / 2
	coldSpan := n - coldStart
	hotset := cfg.Hotset
	if hotset <= 0 {
		return nil, fmt.Errorf("workload: flash hotset must be positive, got %d", hotset)
	}
	if hotset > coldSpan {
		hotset = coldSpan
	}
	f := &FlashCrowd{gen: cfg.Gen, at: cfg.At, until: cfg.At + cfg.Duration, boost: cfg.Boost}
	seen := make(map[Key]bool, hotset)
	for j := uint64(0); len(f.hot) < hotset; j++ {
		k := Key(coldStart + int(splitmix64(uint64(cfg.Seed)+j)%uint64(coldSpan)))
		if !seen[k] {
			seen[k] = true
			f.hot = append(f.hot, k)
		}
	}
	return f, nil
}

// NextRequestGap draws from the base Poisson request process.
func (f *FlashCrowd) NextRequestGap(c Ctx) float64 { return f.gen.NextRequestGap(c.RNG) }

// PickKey draws from the hotset with probability Boost inside the flash
// window, from the base distribution otherwise.
func (f *FlashCrowd) PickKey(c Ctx) Key {
	if c.Now >= f.at && c.Now < f.until && c.RNG.Float64() < f.boost {
		return f.hot[c.RNG.Intn(len(f.hot))]
	}
	return f.gen.PickKey(c.RNG)
}

// UpdatesEnabled reports whether the base generator has updates.
func (f *FlashCrowd) UpdatesEnabled() bool { return f.gen.UpdatesEnabled() }

// NextUpdateGap draws from the base update process.
func (f *FlashCrowd) NextUpdateGap(c Ctx) float64 { return f.gen.NextUpdateGap(c.RNG) }

// PickUpdateKey draws from the base update-key distribution: the flash
// is read traffic, writes keep their stationary mix.
func (f *FlashCrowd) PickUpdateKey(c Ctx) Key { return f.gen.PickUpdateKey(c.RNG) }

// DiurnalConfig parameterizes NewDiurnal.
type DiurnalConfig struct {
	Gen *Generator
	// Period is the seconds per full rotation of the popularity ranking.
	Period float64
}

// Diurnal rotates the Zipf ranking smoothly through the catalog: the
// key at rank r now is the key at rank r+1 a fraction of a Period
// later, modeling time-of-day popularity drift. Updates rotate with
// requests, so write pressure tracks the moving hotset.
type Diurnal struct {
	gen    *Generator
	period float64
}

// NewDiurnal validates the configuration and builds the source.
func NewDiurnal(cfg DiurnalConfig) (*Diurnal, error) {
	if cfg.Gen == nil {
		return nil, fmt.Errorf("workload: diurnal drift requires a generator")
	}
	if cfg.Period <= 0 || math.IsNaN(cfg.Period) || math.IsInf(cfg.Period, 0) {
		return nil, fmt.Errorf("workload: drift period must be positive and finite, got %v", cfg.Period)
	}
	return &Diurnal{gen: cfg.Gen, period: cfg.Period}, nil
}

// offset returns the current rank rotation in catalog positions.
func (d *Diurnal) offset(now float64) int {
	n := d.gen.Catalog().Len()
	frac := math.Mod(now, d.period) / d.period
	if frac < 0 {
		frac += 1
	}
	return int(math.Floor(frac*float64(n))) % n
}

// NextRequestGap draws from the base Poisson request process.
func (d *Diurnal) NextRequestGap(c Ctx) float64 { return d.gen.NextRequestGap(c.RNG) }

// PickKey draws a base key and rotates it by the clock's offset.
func (d *Diurnal) PickKey(c Ctx) Key {
	n := d.gen.Catalog().Len()
	return Key((int(d.gen.PickKey(c.RNG)) + d.offset(c.Now)) % n)
}

// UpdatesEnabled reports whether the base generator has updates.
func (d *Diurnal) UpdatesEnabled() bool { return d.gen.UpdatesEnabled() }

// NextUpdateGap draws from the base update process.
func (d *Diurnal) NextUpdateGap(c Ctx) float64 { return d.gen.NextUpdateGap(c.RNG) }

// PickUpdateKey draws a base update key and rotates it identically.
func (d *Diurnal) PickUpdateKey(c Ctx) Key {
	n := d.gen.Catalog().Len()
	return Key((int(d.gen.PickUpdateKey(c.RNG)) + d.offset(c.Now)) % n)
}

// HotspotConfig parameterizes NewHotspot.
type HotspotConfig struct {
	Gen *Generator
	// AreaSide is the simulation square's side in meters, partitioned
	// into Grid x Grid popularity cells (independent of the protocol's
	// region grid, so hotspots straddle region boundaries).
	AreaSide float64
	Grid     int
	// Hotset is how many keys each cell favors.
	Hotset int
	// Boost is the probability a request targets the requester's cell
	// hotset instead of the base distribution.
	Boost float64
	// Seed derives each cell's hotset membership.
	Seed int64
}

// maxHotspotCells bounds Grid x Grid: every cell holds its own hotset,
// built up front, so a grid of a million cells a side would exhaust
// memory (and Grid*Grid overflows int past about 3e9) long before a run
// starts. 256 x 256 cells is far finer than any area a run can populate.
const maxHotspotCells = 1 << 16

// Hotspot gives each geographic cell its own favored hotset: a peer's
// requests skew toward keys popular where the peer currently is. This
// is the one source that consults Ctx.Loc — peers moving between cells
// drag the popularity field with them.
type Hotspot struct {
	gen      *Generator
	area     float64
	grid     int
	boost    float64
	cellHot  [][]Key // per cell (row-major), the favored keys
	fallback []Key   // used when the locator is absent
}

// NewHotspot validates the configuration and builds the source.
func NewHotspot(cfg HotspotConfig) (*Hotspot, error) {
	if cfg.Gen == nil {
		return nil, fmt.Errorf("workload: hotspot requires a generator")
	}
	if cfg.AreaSide <= 0 {
		return nil, fmt.Errorf("workload: hotspot area side must be positive, got %v", cfg.AreaSide)
	}
	if cfg.Grid <= 0 {
		return nil, fmt.Errorf("workload: hotspot grid must be positive, got %d", cfg.Grid)
	}
	if cfg.Grid > maxHotspotCells/cfg.Grid {
		return nil, fmt.Errorf("workload: hotspot grid %d x %d exceeds %d cells", cfg.Grid, cfg.Grid, maxHotspotCells)
	}
	if cfg.Hotset <= 0 {
		return nil, fmt.Errorf("workload: hotspot hotset must be positive, got %d", cfg.Hotset)
	}
	if cfg.Boost < 0 || cfg.Boost > 1 {
		return nil, fmt.Errorf("workload: hotspot boost %v outside [0, 1]", cfg.Boost)
	}
	n := cfg.Gen.Catalog().Len()
	hotset := cfg.Hotset
	if hotset > n {
		hotset = n
	}
	h := &Hotspot{gen: cfg.Gen, area: cfg.AreaSide, grid: cfg.Grid, boost: cfg.Boost}
	h.cellHot = make([][]Key, cfg.Grid*cfg.Grid)
	for cell := range h.cellHot {
		keys := make([]Key, 0, hotset)
		seen := make(map[Key]bool, hotset)
		for j := uint64(0); len(keys) < hotset; j++ {
			k := Key(splitmix64(uint64(cfg.Seed)^uint64(cell)<<32^j) % uint64(n))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		h.cellHot[cell] = keys
	}
	h.fallback = h.cellHot[0]
	return h, nil
}

// cellOf maps a position to its popularity cell.
func (h *Hotspot) cellOf(x, y float64) int {
	cx := int(x / h.area * float64(h.grid))
	cy := int(y / h.area * float64(h.grid))
	if cx < 0 {
		cx = 0
	} else if cx >= h.grid {
		cx = h.grid - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= h.grid {
		cy = h.grid - 1
	}
	return cy*h.grid + cx
}

// NextRequestGap draws from the base Poisson request process.
func (h *Hotspot) NextRequestGap(c Ctx) float64 { return h.gen.NextRequestGap(c.RNG) }

// PickKey draws from the requester's cell hotset with probability
// Boost, from the base distribution otherwise.
func (h *Hotspot) PickKey(c Ctx) Key {
	if c.RNG.Float64() < h.boost {
		hot := h.fallback
		if c.Loc != nil {
			x, y := c.Loc.Locate(c.Peer)
			hot = h.cellHot[h.cellOf(x, y)]
		}
		return hot[c.RNG.Intn(len(hot))]
	}
	return h.gen.PickKey(c.RNG)
}

// UpdatesEnabled reports whether the base generator has updates.
func (h *Hotspot) UpdatesEnabled() bool { return h.gen.UpdatesEnabled() }

// NextUpdateGap draws from the base update process.
func (h *Hotspot) NextUpdateGap(c Ctx) float64 { return h.gen.NextUpdateGap(c.RNG) }

// PickUpdateKey draws from the base update-key distribution.
func (h *Hotspot) PickUpdateKey(c Ctx) Key { return h.gen.PickUpdateKey(c.RNG) }

// RankChurnConfig parameterizes NewRankChurn.
type RankChurnConfig struct {
	Gen *Generator
	// Every is the seconds between reshuffle epochs.
	Every float64
	// Swaps is how many random rank transpositions each epoch applies.
	Swaps int
	// RNG is the dedicated stream the reshuffles draw from.
	RNG *rand.Rand
}

// RankChurn perturbs the rank-to-key permutation with random
// transpositions every epoch — the popularity-ranking dynamics of
// Wang et al. Keys keep their sizes and home regions; what moves is
// which keys are popular, exactly the signal GD-LD's utility tracks.
type RankChurn struct {
	gen   *Generator
	every float64
	swaps int
	rng   *rand.Rand
	epoch int64
	perm  []uint32 // rank index (0-based) -> catalog key index
}

// NewRankChurn validates the configuration and builds the source.
func NewRankChurn(cfg RankChurnConfig) (*RankChurn, error) {
	if cfg.Gen == nil {
		return nil, fmt.Errorf("workload: rank churn requires a generator")
	}
	if cfg.Every <= 0 || math.IsNaN(cfg.Every) || math.IsInf(cfg.Every, 0) {
		return nil, fmt.Errorf("workload: churn interval must be positive and finite, got %v", cfg.Every)
	}
	if cfg.Swaps <= 0 {
		return nil, fmt.Errorf("workload: churn swaps must be positive, got %d", cfg.Swaps)
	}
	if cfg.RNG == nil {
		return nil, fmt.Errorf("workload: rank churn requires a dedicated RNG stream")
	}
	n := cfg.Gen.Catalog().Len()
	r := &RankChurn{gen: cfg.Gen, every: cfg.Every, swaps: cfg.Swaps, rng: cfg.RNG, perm: make([]uint32, n)}
	for i := range r.perm {
		r.perm[i] = uint32(i)
	}
	return r, nil
}

// advance applies every reshuffle epoch the clock has crossed. Draws
// happen lazily but in epoch order, so the permutation at any sim time
// is independent of how often the source was consulted before it.
func (r *RankChurn) advance(now float64) {
	target := int64(math.Floor(now / r.every))
	for r.epoch < target {
		r.epoch++
		for i := 0; i < r.swaps; i++ {
			a := r.rng.Intn(len(r.perm))
			b := r.rng.Intn(len(r.perm))
			r.perm[a], r.perm[b] = r.perm[b], r.perm[a]
		}
	}
}

// NextRequestGap draws from the base Poisson request process.
func (r *RankChurn) NextRequestGap(c Ctx) float64 { return r.gen.NextRequestGap(c.RNG) }

// PickKey draws a Zipf rank and maps it through the churned permutation.
func (r *RankChurn) PickKey(c Ctx) Key {
	r.advance(c.Now)
	return Key(r.perm[int(r.gen.PickKey(c.RNG))])
}

// UpdatesEnabled reports whether the base generator has updates.
func (r *RankChurn) UpdatesEnabled() bool { return r.gen.UpdatesEnabled() }

// NextUpdateGap draws from the base update process.
func (r *RankChurn) NextUpdateGap(c Ctx) float64 { return r.gen.NextUpdateGap(c.RNG) }

// PickUpdateKey draws an update rank through the same permutation.
func (r *RankChurn) PickUpdateKey(c Ctx) Key {
	r.advance(c.Now)
	return Key(r.perm[int(r.gen.PickUpdateKey(c.RNG))])
}
