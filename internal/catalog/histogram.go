package catalog

import (
	"cadb/internal/storage"
)

// Histogram is an equi-depth histogram over the non-NULL values of a column.
// Bounds[i] is the inclusive upper bound of bucket i; Counts[i] is the number
// of values in bucket i. Buckets are contiguous and ordered.
type Histogram struct {
	Bounds []storage.Value
	Counts []int64
	Total  int64
}

// histogram builds the equi-depth histogram of a column's sorted keys; val(i)
// is the value at sorted position i. A bucket extends over the keys equal to
// its last, and, when tie is set, over the positions tie reports compare
// equal, so equal values never straddle a boundary.
func histogram[K comparable](keys []K, val func(i int) storage.Value, tie func(i, j int) bool, buckets int) *Histogram {
	n := len(keys)
	if n == 0 {
		return nil
	}
	buckets = min(max(buckets, 1), n)
	h := &Histogram{Bounds: make([]storage.Value, 0, buckets), Counts: make([]int64, 0, buckets), Total: int64(n)}
	per, rem := n/buckets, n%buckets
	for b, start := 0, 0; b < buckets && start < n; b++ {
		end := start + per
		if b < rem {
			end++
		}
		end = min(end, n)
		last := end - 1
		for end < n && (keys[end] == keys[last] || tie != nil && tie(end, last)) {
			end++
		}
		h.Bounds = append(h.Bounds, val(end-1))
		h.Counts = append(h.Counts, int64(end-start))
		start = end
	}
	return h
}

// SelectivityLE estimates the fraction of non-NULL values <= v.
func (h *Histogram) SelectivityLE(v storage.Value) float64 {
	if h == nil || h.Total == 0 {
		return 0.5
	}
	var cum int64
	for i, bound := range h.Bounds {
		if v.Compare(bound) >= 0 {
			cum += h.Counts[i]
			continue
		}
		// v falls inside bucket i: assume uniform spread within the bucket
		// by interpolating on the value when numeric, else take half.
		frac := 0.5
		lo := h.lowerBound(i)
		frac = interpolate(lo, bound, v)
		return (float64(cum) + frac*float64(h.Counts[i])) / float64(h.Total)
	}
	return 1
}

// SelectivityRange estimates the fraction of non-NULL values in [lo, hi]
// (either bound may be the zero Value with null=true to mean unbounded).
func (h *Histogram) SelectivityRange(lo, hi storage.Value, hasLo, hasHi bool) float64 {
	if h == nil {
		return 0.3
	}
	upper := 1.0
	if hasHi {
		upper = h.SelectivityLE(hi)
	}
	lower := 0.0
	if hasLo {
		lower = h.SelectivityLT(lo)
	}
	sel := upper - lower
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// SelectivityLT estimates the fraction of non-NULL values < v.
func (h *Histogram) SelectivityLT(v storage.Value) float64 {
	if h == nil || h.Total == 0 {
		return 0.5
	}
	// LE minus an epsilon of the equal mass; approximate equal mass with the
	// bucket containing v.
	le := h.SelectivityLE(v)
	for i, bound := range h.Bounds {
		if v.Compare(bound) <= 0 {
			// Assume values spread evenly across the bucket's distinct
			// values; subtract one "value slot" worth of mass.
			frac := float64(h.Counts[i]) / float64(h.Total)
			slot := frac / 8 // coarse: a bucket holds several distinct values
			lt := le - slot
			if lt < 0 {
				lt = 0
			}
			return lt
		}
	}
	return le
}

func (h *Histogram) lowerBound(bucket int) storage.Value {
	if bucket == 0 {
		return h.Bounds[0] // degenerate; interpolate() guards
	}
	return h.Bounds[bucket-1]
}

// interpolate returns the position of v between lo and hi in [0,1] for
// numeric kinds, 0.5 otherwise.
func interpolate(lo, hi, v storage.Value) float64 {
	switch v.Kind {
	case storage.KindInt, storage.KindDate:
		if hi.Int == lo.Int {
			return 0.5
		}
		f := float64(v.Int-lo.Int) / float64(hi.Int-lo.Int)
		return clamp01(f)
	case storage.KindFloat:
		if hi.Float == lo.Float {
			return 0.5
		}
		return clamp01((v.Float - lo.Float) / (hi.Float - lo.Float))
	default:
		return 0.5
	}
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
