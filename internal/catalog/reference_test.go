package catalog

import (
	"sort"

	"cadb/internal/storage"
)

// ReferenceBuildStats is the statistics builder as it stood before the
// one-sort-per-column rewrite: per column a value-count map, a reflection
// sort of every non-NULL value, and a second sort of the map for the MCVs.
// Every column comes back sorted, so Col reads it as built. Tests diff
// BuildStats against it.
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
			widthSum += int64(valueWidth(col, v))
			nonNull = append(nonNull, v)
		}
		cs.Distinct = int64(len(counts))
		cs.MCVs = referenceTopMCVs(counts, MCVLimit)
		if len(nonNull) > 0 {
			sort.Slice(nonNull, func(i, j int) bool { return nonNull[i].Compare(nonNull[j]) < 0 })
			cs.Min = nonNull[0]
			cs.Max = nonNull[len(nonNull)-1]
			cs.AvgWidth = float64(widthSum) / float64(len(nonNull))
			cs.Hist = buildHistogram(len(nonNull), func(i int) storage.Value { return nonNull[i] }, buckets)
		}
		st.cols[ci].once.Do(func() {})
		st.cols[ci].sorted.Store(true)
	}
	return st
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
		return less(all[i].Key, all[j].Key)
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
