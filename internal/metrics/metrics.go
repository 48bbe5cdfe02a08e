// Package metrics collects the performance measures the paper reports:
// average latency per request, byte hit ratio, control message overhead,
// false hit ratio, and energy per request, together with the supporting
// counters (hit classes, failures, message breakdowns).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// HitClass says where a request was ultimately satisfied.
type HitClass int

// Hit classes, ordered by increasing cost.
const (
	// LocalHit: served from the requesting peer's own cache.
	LocalHit HitClass = iota
	// RegionalHit: served by another peer in the requester's region
	// (cumulative cache).
	RegionalHit
	// EnRouteHit: served by a peer on the path to the home region.
	EnRouteHit
	// RemoteHit: served by the home (or replica) region.
	RemoteHit
	// Failure: the request got no answer.
	Failure
	numClasses
)

// String implements fmt.Stringer.
func (h HitClass) String() string {
	switch h {
	case LocalHit:
		return "local"
	case RegionalHit:
		return "regional"
	case EnRouteHit:
		return "en-route"
	case RemoteHit:
		return "remote"
	case Failure:
		return "failure"
	default:
		return fmt.Sprintf("class(%d)", int(h))
	}
}

// Collector accumulates one run's observations. Not safe for concurrent
// use; one simulation run owns one collector (sharded runs own one per
// shard and Merge them).
//
// Every accumulator is either an integer sum or a sample multiset whose
// digests are computed over a sorted copy, so the observations commute:
// merging per-shard collectors yields bit-identical reports to a single
// collector that saw the same observations in any order.
type Collector struct {
	latencies    []float64
	latClasses   []uint8 // serving class of latencies[i]
	byClass      [numClasses]uint64
	staleByClass [numClasses]uint64

	// Streaming mode (DESIGN.md section 14). cap == 0 retains every
	// latency sample — the exact reference behavior, where Snapshot
	// digests are computed over sorted copies of the full multiset.
	// cap > 0 bounds the retained buffer: once more than cap samples have
	// been observed the buffer becomes an Algorithm-R reservoir and the
	// running aggregates below take over the mean/max, so memory stays
	// constant no matter how long the run is. Below the cap the two modes
	// are bit-identical.
	cap      int
	seen     uint64  // latency samples observed (== len(latencies) until the cap is crossed)
	latSum   float64 // Kahan running sum over every latency observed
	latSumC  float64 // Kahan compensation for latSum
	latMax   float64
	rngState uint64 // splitmix64 state driving reservoir replacement draws

	classSum  [numClasses]float64 // Kahan running per-class latency sums
	classSumC [numClasses]float64

	bytesRequested int64
	bytesFromCache int64 // served from local or regional caches

	controlMessages     uint64 // consistency-maintenance messages
	searchMessages      uint64 // retrieval traffic
	maintenanceMessages uint64 // region upkeep: key handoffs

	validHits uint64 // hits served as valid
	staleHits uint64 // hits served as valid that were actually stale

	updatesIssued uint64
	pollsIssued   uint64
}

// NewCollector returns an empty collector that retains every sample.
func NewCollector() *Collector { return &Collector{} }

// NewCollectorCapped returns a collector that retains at most cap
// latency samples. Until the cap is crossed it behaves exactly like an
// uncapped collector; past it, the sample buffer turns into a uniform
// reservoir (Algorithm R with a deterministic splitmix64 stream) and
// the snapshot's mean/max come from exact running aggregates, with the
// percentiles estimated from the reservoir. cap <= 0 means unlimited.
func NewCollectorCapped(cap int) *Collector {
	if cap < 0 {
		cap = 0
	}
	return &Collector{cap: cap}
}

// kahanAdd folds v into the compensated running sum (*sum, *comp).
func kahanAdd(sum, comp *float64, v float64) {
	y := v - *comp
	t := *sum + y
	*comp = (t - *sum) - y
	*sum = t
}

// nextRand advances the collector's deterministic splitmix64 stream.
// The stream exists so reservoir replacement never touches the
// simulation's RNG registry: collectors draw identically on every
// machine without perturbing any protocol-visible random sequence.
func (c *Collector) nextRand() uint64 {
	c.rngState += 0x9E3779B97F4A7C15
	z := c.rngState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Reserve pre-sizes the latency sample buffer for about n completed
// requests, so large-N runs do not regrow it doubling-by-doubling in
// the event loop. Purely a capacity hint: it never shrinks the buffer
// and has no effect on any observation or snapshot.
func (c *Collector) Reserve(n int) {
	if c.cap > 0 && n > c.cap {
		n = c.cap // the buffer never grows past the reservoir bound
	}
	if n <= 0 || cap(c.latencies) >= n {
		return
	}
	grown := make([]float64, len(c.latencies), n)
	copy(grown, c.latencies)
	c.latencies = grown
	grownCls := make([]uint8, len(c.latClasses), n)
	copy(grownCls, c.latClasses)
	c.latClasses = grownCls
}

// Request records a completed (or failed) request.
//
//	latency: seconds from issue to answer (ignored for failures)
//	size:    item size in bytes
//	class:   where the request was satisfied
//	stale:   the answer was served as valid but was out of date
func (c *Collector) Request(latency float64, size int, class HitClass, stale bool) {
	c.byClass[class]++
	c.bytesRequested += int64(size)
	if class == Failure {
		return
	}
	c.seen++
	kahanAdd(&c.latSum, &c.latSumC, latency)
	kahanAdd(&c.classSum[class], &c.classSumC[class], latency)
	if latency > c.latMax {
		c.latMax = latency
	}
	if c.cap == 0 || len(c.latencies) < c.cap {
		c.latencies = append(c.latencies, latency)
		c.latClasses = append(c.latClasses, uint8(class))
	} else if j := c.nextRand() % c.seen; j < uint64(c.cap) {
		// Algorithm R: the t-th sample (t = seen) replaces a uniformly
		// chosen slot with probability cap/t, keeping the buffer a
		// uniform sample of everything observed so far.
		c.latencies[j] = latency
		c.latClasses[j] = uint8(class)
	}
	if class == LocalHit || class == RegionalHit {
		c.bytesFromCache += int64(size)
	}
	// The false-hit ratio covers cache hits served as valid; data
	// fetched from the authoritative home/replica region is not a
	// "hit" in the paper's sense.
	if class == LocalHit || class == RegionalHit || class == EnRouteHit {
		if stale {
			c.staleHits++
			c.staleByClass[class]++
		} else {
			c.validHits++
		}
	} else if stale {
		c.staleByClass[class]++
	}
}

// ControlMessages adds n consistency-maintenance messages (invalidation
// pushes, update pushes, polls, poll replies).
func (c *Collector) ControlMessages(n int) { c.controlMessages += uint64(n) }

// SearchMessages adds n retrieval messages (request forwarding, regional
// floods, responses).
func (c *Collector) SearchMessages(n int) { c.searchMessages += uint64(n) }

// MaintenanceMessages adds n region-upkeep messages (key handoffs on
// inter-region mobility and graceful departures).
func (c *Collector) MaintenanceMessages(n int) { c.maintenanceMessages += uint64(n) }

// UpdateIssued counts one data update entering the system.
func (c *Collector) UpdateIssued() { c.updatesIssued++ }

// PollIssued counts one validation poll sent to a home region.
func (c *Collector) PollIssued() { c.pollsIssued++ }

// Completed returns the number of answered requests.
func (c *Collector) Completed() uint64 {
	var total uint64
	for cl := HitClass(0); cl < Failure; cl++ {
		total += c.byClass[cl]
	}
	return total
}

// Report is an immutable summary of a run.
type Report struct {
	Requests  uint64
	Completed uint64
	Failures  uint64
	ByClass   map[string]uint64
	// StaleByClass counts false hits by serving class.
	StaleByClass map[string]uint64
	// MeanLatencyByClass is the mean latency of completed requests per
	// serving class.
	MeanLatencyByClass map[string]float64

	MeanLatency float64 // seconds
	P50Latency  float64
	P95Latency  float64
	MaxLatency  float64

	ByteHitRatio  float64 // bytes served from local+regional cache / bytes requested
	FalseHitRatio float64 // stale cache hits / cache hits served as valid

	ControlMessages     uint64
	SearchMessages      uint64
	MaintenanceMessages uint64
	UpdatesIssued       uint64
	PollsIssued         uint64

	// EnergyTotal and EnergyPerRequest are filled by the caller from the
	// energy meter (the collector does not see the radio).
	EnergyTotal      float64 // mJ
	EnergyPerRequest float64 // mJ
}

// Snapshot derives the report from the collected observations.
func (c *Collector) Snapshot() Report {
	r := Report{
		Completed:           c.Completed(),
		Failures:            c.byClass[Failure],
		ByClass:             make(map[string]uint64, int(numClasses)),
		ControlMessages:     c.controlMessages,
		SearchMessages:      c.searchMessages,
		MaintenanceMessages: c.maintenanceMessages,
		UpdatesIssued:       c.updatesIssued,
		PollsIssued:         c.pollsIssued,
	}
	r.Requests = r.Completed + r.Failures
	r.StaleByClass = make(map[string]uint64, int(numClasses))
	r.MeanLatencyByClass = make(map[string]float64, int(numClasses))
	// Exact mode: every observed sample is still in the buffer. Per-class
	// and global means are computed over a sorted copy of each sample
	// multiset, so the result is independent of observation order (and
	// therefore of how a sharded run partitioned the requests). Once the
	// reservoir has dropped samples (seen > retained), the exact running
	// aggregates supply the means and max, and only the percentiles are
	// estimated from the retained sample.
	exact := c.seen == uint64(len(c.latencies))
	var classBuf []float64
	for cl := HitClass(0); cl < numClasses; cl++ {
		r.ByClass[cl.String()] = c.byClass[cl]
		r.StaleByClass[cl.String()] = c.staleByClass[cl]
		if cl == Failure || c.byClass[cl] == 0 {
			continue
		}
		if !exact {
			r.MeanLatencyByClass[cl.String()] = c.classSum[cl] / float64(c.byClass[cl])
			continue
		}
		classBuf = classBuf[:0]
		for i, lcl := range c.latClasses {
			if HitClass(lcl) == cl {
				classBuf = append(classBuf, c.latencies[i])
			}
		}
		if len(classBuf) == 0 {
			continue
		}
		sort.Float64s(classBuf)
		var sum float64
		for _, l := range classBuf {
			sum += l
		}
		r.MeanLatencyByClass[cl.String()] = sum / float64(c.byClass[cl])
	}
	switch {
	case exact && len(c.latencies) > 0:
		sorted := make([]float64, len(c.latencies))
		copy(sorted, c.latencies)
		sort.Float64s(sorted)
		var sum float64
		for _, l := range sorted {
			sum += l
		}
		r.MeanLatency = sum / float64(len(sorted))
		r.P50Latency = percentile(sorted, 0.50)
		r.P95Latency = percentile(sorted, 0.95)
		r.MaxLatency = sorted[len(sorted)-1]
	case !exact && c.seen > 0:
		r.MeanLatency = c.latSum / float64(c.seen)
		r.MaxLatency = c.latMax
		sorted := make([]float64, len(c.latencies))
		copy(sorted, c.latencies)
		sort.Float64s(sorted)
		r.P50Latency = percentile(sorted, 0.50)
		r.P95Latency = percentile(sorted, 0.95)
	}
	if c.bytesRequested > 0 {
		r.ByteHitRatio = float64(c.bytesFromCache) / float64(c.bytesRequested)
	}
	if served := c.validHits + c.staleHits; served > 0 {
		r.FalseHitRatio = float64(c.staleHits) / float64(served)
	}
	return r
}

// Merge folds another collector's observations into this one. Because
// every accumulator is an integer sum or an order-insensitive sample
// multiset, merging per-shard collectors in any order produces the same
// Snapshot as a single collector that recorded everything.
func (c *Collector) Merge(o *Collector) {
	c.latencies = append(c.latencies, o.latencies...)
	c.latClasses = append(c.latClasses, o.latClasses...)
	c.seen += o.seen
	kahanAdd(&c.latSum, &c.latSumC, o.latSum-o.latSumC)
	if o.latMax > c.latMax {
		c.latMax = o.latMax
	}
	c.rngState ^= o.rngState
	if c.cap > 0 && len(c.latencies) > c.cap {
		// The concatenation overflowed the bound: keep an evenly spaced
		// subsample. The merged buffer is a percentile estimate, not a
		// uniform reservoir — which only matters past the cap, a regime
		// the sub-cap equivalence contracts never enter.
		n := len(c.latencies)
		for i := 0; i < c.cap; i++ {
			j := i * n / c.cap
			c.latencies[i] = c.latencies[j]
			c.latClasses[i] = c.latClasses[j]
		}
		c.latencies = c.latencies[:c.cap]
		c.latClasses = c.latClasses[:c.cap]
	}
	for cl := HitClass(0); cl < numClasses; cl++ {
		c.byClass[cl] += o.byClass[cl]
		c.staleByClass[cl] += o.staleByClass[cl]
		kahanAdd(&c.classSum[cl], &c.classSumC[cl], o.classSum[cl]-o.classSumC[cl])
	}
	c.bytesRequested += o.bytesRequested
	c.bytesFromCache += o.bytesFromCache
	c.controlMessages += o.controlMessages
	c.searchMessages += o.searchMessages
	c.maintenanceMessages += o.maintenanceMessages
	c.validHits += o.validHits
	c.staleHits += o.staleHits
	c.updatesIssued += o.updatesIssued
	c.pollsIssued += o.pollsIssued
}

// percentile interpolates the p-quantile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// WithEnergy returns a copy of the report with energy fields filled from
// the given network-wide total.
func (r Report) WithEnergy(totalMilliJoules float64) Report {
	r.EnergyTotal = totalMilliJoules
	if r.Requests > 0 {
		r.EnergyPerRequest = totalMilliJoules / float64(r.Requests)
	}
	return r
}

// String renders a compact one-line summary.
func (r Report) String() string {
	return fmt.Sprintf(
		"requests=%d failures=%d latency=%.3fs byteHit=%.3f falseHit=%.4f ctrl=%d energy/req=%.2fmJ",
		r.Requests, r.Failures, r.MeanLatency, r.ByteHitRatio,
		r.FalseHitRatio, r.ControlMessages, r.EnergyPerRequest)
}
