package catalog

import (
	"sort"

	"cadb/internal/storage"
)

// ReferenceBuildStats is the statistics builder as it stood before the
// one-sort-per-column rewrite: per column a value-count map, a reflection
// sort of every non-NULL value, and a second sort of the map for the MCVs.
// Its sort is CompareTotal's, which places a NaN first; under Compare, a
// column with a NaN sorted into an order of the algorithm's choosing.
// Every column comes back sorted, so Col reads it as built. Tests diff
// BuildStats against it. It shares no code with BuildStats beyond the Stats
// it fills: the width rule, the histogram and the MCV order are its own
// copies.
func ReferenceBuildStats(t *Table, buckets int) *Stats {
	st := newStats(t, buckets)
	for ci, col := range t.Schema.Columns {
		cs := &st.cols[ci].cs
		counts := make(map[storage.ValueKey]int64, 1024)
		var widthSum int64
		var nonNull []storage.Value
		for _, r := range t.Rows {
			v := r[ci]
			if v.Null {
				cs.NullCount++
				continue
			}
			counts[v.Key()]++
			widthSum += int64(referenceWidth(col, v))
			nonNull = append(nonNull, v)
		}
		cs.Distinct = int64(len(counts))
		cs.MCVs = referenceTopMCVs(counts, MCVLimit)
		if len(nonNull) > 0 {
			sort.Slice(nonNull, func(i, j int) bool { return nonNull[i].CompareTotal(nonNull[j]) < 0 })
			cs.Min = nonNull[0]
			cs.Max = nonNull[len(nonNull)-1]
			cs.AvgWidth = float64(widthSum) / float64(len(nonNull))
			cs.Hist = referenceHistogram(len(nonNull), func(i int) storage.Value { return nonNull[i] }, buckets)
		}
		st.cols[ci].once.Do(func() {})
		st.cols[ci].sorted.Store(true)
	}
	return st
}

// UseStats makes st the table's statistics, as if Stats had built them.
func (t *Table) UseStats(st *Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = st
}

// referenceTopMCVs extracts the k most frequent values. Values that appear only once
// are never "common"; an MCV list is only kept when it captures skew (the
// top value must beat the uniform share).
func referenceTopMCVs(counts map[storage.ValueKey]int64, k int) []MCV {
	if len(counts) == 0 {
		return nil
	}
	all := make([]MCV, 0, len(counts))
	var total int64
	for key, n := range counts {
		all = append(all, MCV{Key: key, Count: n})
		total += n
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return referenceLess(all[i].Key, all[j].Key)
	})
	if k > len(all) {
		k = len(all)
	}
	out := all[:k]
	uniform := float64(total) / float64(len(counts))
	if float64(out[0].Count) <= uniform*1.05 && len(counts) > k {
		return nil // no skew worth tracking
	}
	cp := make([]MCV, k)
	copy(cp, out)
	return cp
}

func referenceLess(a, b storage.ValueKey) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Str != b.Str {
		return a.Str < b.Str
	}
	if a.Int != b.Int {
		return a.Int < b.Int
	}
	return a.Float < b.Float
}

func referenceWidth(c storage.Column, v storage.Value) int {
	if w := c.Width(); w > 0 {
		return w
	}
	return 2 + len(v.Str)
}

// referenceHistogram constructs an equi-depth histogram from n sorted values,
// the i-th read through at.
func referenceHistogram(n int, at func(i int) storage.Value, buckets int) *Histogram {
	if n == 0 {
		return nil
	}
	if buckets < 1 {
		buckets = 1
	}
	if buckets > n {
		buckets = n
	}
	h := &Histogram{Total: int64(n)}
	per := n / buckets
	rem := n % buckets
	start := 0
	for b := 0; b < buckets && start < n; b++ {
		count := per
		if b < rem {
			count++
		}
		if count == 0 {
			continue
		}
		end := start + count
		if end > n {
			end = n
		}
		// Extend the bucket so equal values never straddle a boundary.
		for last := at(end - 1); end < n && at(end).Compare(last) == 0; {
			end++
		}
		h.Bounds = append(h.Bounds, at(end-1))
		h.Counts = append(h.Counts, int64(end-start))
		start = end
		if start >= n {
			break
		}
	}
	return h
}
