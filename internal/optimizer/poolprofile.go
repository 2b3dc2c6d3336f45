package optimizer

// Pool-aware costing.
//
// The base model charges every estimated page read as physical I/O, which is
// right for a cold store but wrong once a buffer pool is in front of the
// disk: a structure whose pages stay resident serves almost all fetches from
// memory, so compressing a structure until it *fits the pool* is worth far
// more than the raw page-count reduction suggests — exactly the
// cache-residency effect the pool sweep measures (ext-pool). A PoolProfile
// feeds that effect back into the what-if model: page-I/O terms are
// discounted by the structure's expected hit rate, while per-tuple CPU
// (including decompression β) is unchanged — a pool hit still decodes the
// page — and write I/O is never discounted, because dirtied pages must reach
// disk regardless of residency.

// DefaultResidentHitRate is the assumed steady-state hit rate for a
// structure whose pages all fit in the pool: after the first pass nearly
// every fetch is a hit, but cold misses and invalidation churn keep it
// below 1.
const DefaultResidentHitRate = 0.9

// PoolProfile describes the buffer pool the costed execution runs against.
type PoolProfile struct {
	// CapacityBytes is the pool size. A structure whose estimated bytes fit
	// is assumed resident (ResidentHitRate) unless a measured rate overrides.
	CapacityBytes int64
	// ResidentHitRate is the hit rate assumed for structures that fit
	// entirely in the pool. Zero means DefaultResidentHitRate.
	ResidentHitRate float64
	// Rates holds measured per-structure hit rates keyed by structure id —
	// "heap:<table>" for heaps (lowercased table), Def.ID() for index
	// structures — e.g. exec.Store.MeasuredHitRates. Measured rates win over
	// the capacity heuristic.
	Rates map[string]float64
}

// NewPoolProfile returns a profile for a pool of the given size with the
// default resident hit rate and no measured rates.
func NewPoolProfile(capacityBytes int64) *PoolProfile {
	return &PoolProfile{CapacityBytes: capacityBytes, ResidentHitRate: DefaultResidentHitRate}
}

// RateFor returns the expected pool hit rate for a structure: its measured
// rate when one is recorded, else the resident rate when its bytes fit the
// pool, else 0 (every read is physical). Rates are clamped to [0, 1); a nil
// profile always reports 0, so an unset profile costs exactly like the base
// model.
func (p *PoolProfile) RateFor(id string, bytes int64) float64 {
	if p == nil {
		return 0
	}
	if r, ok := p.Rates[id]; ok {
		return clampRate(r)
	}
	if p.CapacityBytes > 0 && bytes > 0 && bytes <= p.CapacityBytes {
		r := p.ResidentHitRate
		if r == 0 {
			r = DefaultResidentHitRate
		}
		return clampRate(r)
	}
	return 0
}

// clampRate bounds a hit rate to [0, 1): a rate of exactly 1 would cost a
// resident structure zero I/O forever, erasing the tie-break against simply
// not building it.
func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 0.999 {
		return 0.999
	}
	return r
}

// SetPoolProfile installs (nil clears) the pool profile and drops the memo —
// its structures and terms were priced under the previous profile. Call it
// between enumerations, not concurrently with costing.
func (cm *CostModel) SetPoolProfile(p *PoolProfile) {
	cm.pool = p
	cm.ResetCostCache()
}

// PoolProfile returns the installed profile (nil when costing is pool-blind).
func (cm *CostModel) PoolProfile() *PoolProfile { return cm.pool }

// poolDiscount is the multiplier applied to a structure's page-I/O terms:
// 1 when pool-blind, (1 - hit rate) otherwise.
func (cm *CostModel) poolDiscount(id string, bytes int64) float64 {
	return 1 - cm.pool.RateFor(id, bytes)
}
