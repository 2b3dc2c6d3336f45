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

// ResidentHitRate is the assumed steady-state hit rate for a structure whose
// pages all fit in the pool: after the first pass nearly every fetch is a
// hit, but cold misses and invalidation churn keep it below 1 — and a rate of
// exactly 1 would cost a resident structure zero I/O forever, erasing the
// tie-break against simply not building it.
const ResidentHitRate = 0.9

// PoolProfile describes the buffer pool the costed execution runs against.
type PoolProfile struct {
	// CapacityBytes is the pool size. A structure whose estimated bytes fit
	// is assumed resident (ResidentHitRate).
	CapacityBytes int64
}

// NewPoolProfile returns a profile for a pool of the given size.
func NewPoolProfile(capacityBytes int64) *PoolProfile {
	return &PoolProfile{CapacityBytes: capacityBytes}
}

// RateFor returns the expected pool hit rate for a structure of the given
// size: ResidentHitRate when its bytes fit the pool, else 0 (every read is
// physical). A nil profile always reports 0, so an unset profile costs
// exactly like the base model.
func (p *PoolProfile) RateFor(bytes int64) float64 {
	if p != nil && bytes > 0 && bytes <= p.CapacityBytes {
		return ResidentHitRate
	}
	return 0
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
func (cm *CostModel) poolDiscount(bytes int64) float64 {
	return 1 - cm.pool.RateFor(bytes)
}
