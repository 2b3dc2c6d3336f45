// Package catalog holds the logical database: tables with rows, primary and
// foreign keys, and the per-column statistics (distinct counts, min/max,
// equi-depth histograms) that the query optimizer and the size-estimation
// framework consume for cardinality estimation — the same statistics the
// paper assumes the optimizer maintains (Section 2.2).
package catalog

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"cadb/internal/par"
	"cadb/internal/storage"
)

// FK declares that Col references RefTable.RefCol (a key/foreign-key
// relationship, used for join synopses and FK joins).
type FK struct {
	Col      string
	RefTable string
	RefCol   string
}

// Table is a named relation with materialized rows.
type Table struct {
	Name   string
	Schema *storage.Schema
	Rows   []storage.Row
	// PK lists the primary key columns (also the default clustered key).
	PK []string
	// FKs lists foreign keys out of this table.
	FKs []FK
	// Fact marks fact tables (targets of bulk loads and join-synopsis roots).
	Fact bool

	// mu guards the lazily computed fields below; concurrent what-if
	// costing workers hit Stats, AvgRowWidth and HeapBytes freely.
	mu          sync.Mutex
	stats       *Stats
	avgRowWidth float64
	heapBytes   int64
}

// AvgRowWidth returns the average encoded row width, computed once from a
// prefix sample of the rows.
func (t *Table) AvgRowWidth() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.avgRowWidth == 0 {
		rows := t.Rows
		if len(rows) > 2000 {
			rows = rows[:2000]
		}
		t.avgRowWidth = t.Schema.AvgRowWidth(rows)
	}
	return t.avgRowWidth
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int64 { return int64(len(t.Rows)) }

// HeapBytes returns the uncompressed heap payload size, computed once.
// Configuration.SizeBytes calls this for every clustered candidate at every
// greedy step, so re-packing the heap each time would dominate enumeration.
func (t *Table) HeapBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.heapBytes == 0 {
		t.heapBytes = storage.PackedBytes(t.Schema, t.Rows)
	}
	return t.heapBytes
}

// HeapPages returns the uncompressed heap size in pages.
func (t *Table) HeapPages() int64 { return storage.PagesForBytes(t.HeapBytes()) }

// Stats returns (building lazily) the table statistics.
func (t *Table) Stats() *Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats == nil {
		t.stats = BuildStats(t, DefaultHistogramBuckets)
	}
	return t.stats
}

// HasStats reports whether the statistics are built and current, that is
// whether Stats would return them without a rebuild.
func (t *Table) HasStats() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats != nil
}

// InvalidateStats drops cached statistics (used after mutating Rows).
func (t *Table) InvalidateStats() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = nil
	t.avgRowWidth = 0
	t.heapBytes = 0
}

// FKTo returns the foreign key referencing the given table, if any.
func (t *Table) FKTo(ref string) (FK, bool) {
	for _, fk := range t.FKs {
		if strings.EqualFold(fk.RefTable, ref) {
			return fk, true
		}
	}
	return FK{}, false
}

// Database is a named set of tables.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// AddTable registers a table; the name must be unique.
func (db *Database) AddTable(t *Table) {
	key := strings.ToLower(t.Name)
	if _, dup := db.tables[key]; dup {
		panic(fmt.Sprintf("catalog: duplicate table %q", t.Name))
	}
	db.tables[key] = t
	db.order = append(db.order, key)
}

// Table returns the named table or nil.
func (db *Database) Table(name string) *Table {
	return db.tables[strings.ToLower(name)]
}

// MustTable returns the named table or panics.
func (db *Database) MustTable(name string) *Table {
	t := db.Table(name)
	if t == nil {
		panic(fmt.Sprintf("catalog: unknown table %q", name))
	}
	return t
}

// Tables returns all tables in registration order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, k := range db.order {
		out = append(out, db.tables[k])
	}
	return out
}

// Snapshot returns a database of the same tables as they stand now, for a
// planner that must keep costing them that way whatever later writes do to
// their rows. Each snapshot table shares its schema and keys, keeps the row
// count of the call and carries the statistics, average row width and heap
// size the table had cached or computes now; nothing invalidates them. Its
// rows are the call's row slice, which later writes may rewrite in place:
// read a snapshot's statistics, never its rows.
func (db *Database) Snapshot() *Database {
	out := NewDatabase(db.Name)
	for _, t := range db.Tables() {
		out.AddTable(&Table{
			Name: t.Name, Schema: t.Schema, Rows: t.Rows, PK: t.PK, FKs: t.FKs, Fact: t.Fact,
			stats: t.Stats(), avgRowWidth: t.AvgRowWidth(), heapBytes: t.HeapBytes(),
		})
	}
	return out
}

// TotalHeapBytes is the uncompressed payload size of all tables — the "database
// size without any indexes" that the paper scales space budgets against.
func (db *Database) TotalHeapBytes() int64 {
	var total int64
	for _, t := range db.Tables() {
		total += t.HeapBytes()
	}
	return total
}

// DefaultHistogramBuckets is the equi-depth histogram resolution.
const DefaultHistogramBuckets = 64

// MCV is one most-common-value entry.
type MCV struct {
	Key   storage.ValueKey
	Count int64
}

// ColStats are per-column statistics.
type ColStats struct {
	Distinct  int64
	NullCount int64
	Min, Max  storage.Value
	AvgWidth  float64
	Hist      *Histogram // nil for all-NULL columns
	// MCVs lists the most common values with exact frequencies (up to
	// MCVLimit entries), used for equality selectivity on skewed columns.
	MCVs []MCV
}

// MCVLimit caps the most-common-value list length.
const MCVLimit = 8

// MCVFreq returns the frequency of v among non-NULL values if v is a tracked
// common value.
func (c *ColStats) MCVFreq(v storage.Value, nonNull int64) (float64, bool) {
	if nonNull <= 0 {
		return 0, false
	}
	k := v.Key()
	for _, m := range c.MCVs {
		if m.Key == k {
			return float64(m.Count) / float64(nonNull), true
		}
	}
	return 0, false
}

// MCVMass returns the total fraction of non-NULL values covered by the MCV
// list.
func (c *ColStats) MCVMass(nonNull int64) float64 {
	if nonNull <= 0 {
		return 0
	}
	var total int64
	for _, m := range c.MCVs {
		total += m.Count
	}
	return float64(total) / float64(nonNull)
}

// NullFrac returns the fraction of NULLs given the table row count.
func (c *ColStats) NullFrac(rowCount int64) float64 {
	if rowCount == 0 {
		return 0
	}
	return float64(c.NullCount) / float64(rowCount)
}

// Stats bundles table-level statistics. The column stats are immutable once
// built; the distinct-prefix cache is guarded for concurrent readers.
type Stats struct {
	RowCount int64
	Cols     map[string]*ColStats

	mu             sync.Mutex
	distinctPrefix map[string]int64 // cache: joined lowercase col list -> count
}

// Col returns stats for the named column (nil if unknown).
func (s *Stats) Col(name string) *ColStats { return s.Cols[strings.ToLower(name)] }

// BuildStats produces the table's statistics with the given histogram bucket
// count. Each column is sorted once and everything — distinct count, most
// common values, min/max, the equi-depth histogram — is read off the sorted
// runs; columns are independent, so they build concurrently into their own
// slots.
func BuildStats(t *Table, buckets int) *Stats {
	cols := make([]*ColStats, len(t.Schema.Columns))
	par.For(runtime.GOMAXPROCS(0), len(cols), func(ci int) {
		cols[ci] = buildColStats(t, ci, buckets)
	})
	st := &Stats{
		RowCount:       t.RowCount(),
		Cols:           make(map[string]*ColStats, len(cols)),
		distinctPrefix: make(map[string]int64),
	}
	for ci, col := range t.Schema.Columns {
		st.Cols[strings.ToLower(col.Name)] = cols[ci]
	}
	return st
}

func buildColStats(t *Table, ci, buckets int) *ColStats {
	col := t.Schema.Columns[ci]
	cs := &ColStats{}
	// The column's non-NULL values in order: n of them, the i-th through at.
	var (
		n  int
		at func(i int) storage.Value
	)
	switch col.Kind {
	case storage.KindInt, storage.KindDate:
		n, at = sortedKeys(t, ci, cs,
			func(v storage.Value) int64 { return v.Int },
			func(k int64) storage.Value { return storage.Value{Kind: col.Kind, Int: k} })
	case storage.KindFloat:
		n, at = sortedKeys(t, ci, cs,
			func(v storage.Value) float64 { return v.Float },
			func(k float64) storage.Value { return storage.Value{Kind: col.Kind, Float: k} })
	case storage.KindString:
		n, at = sortedKeys(t, ci, cs,
			func(v storage.Value) string { return v.Str },
			func(k string) storage.Value { return storage.Value{Kind: col.Kind, Str: k} })
	}
	if at == nil {
		n, at = sortedValues(t, ci, cs)
	}
	if n == 0 {
		return cs
	}
	cs.Min = at(0)
	cs.Max = at(n - 1)
	cs.Hist = buildHistogram(n, at, buckets)

	// One pass over the runs of equal keys: count them, and keep the
	// MCVLimit most frequent in (count desc, key asc) order.
	var widthSum int64
	top := make([]MCV, 0, MCVLimit+1)
	for i := 0; i < n; {
		v := at(i)
		key, end := v.Key(), i+1
		for end < n && at(end).Key() == key {
			end++
		}
		cs.Distinct++
		run := MCV{Key: key, Count: int64(end - i)}
		widthSum += run.Count * int64(valueWidth(col, v))
		i = end
		pos := len(top)
		for pos > 0 && mcvBefore(run, top[pos-1]) {
			pos--
		}
		if pos < MCVLimit {
			if top = slices.Insert(top, pos, run); len(top) > MCVLimit {
				top = top[:MCVLimit]
			}
		}
	}
	cs.AvgWidth = float64(widthSum) / float64(n)
	// Values that appear only once are never "common"; an MCV list is only
	// kept when it captures skew (the top value must beat the uniform
	// share).
	uniform := float64(n) / float64(cs.Distinct)
	if float64(top[0].Count) > uniform*1.05 || cs.Distinct <= MCVLimit {
		cs.MCVs = slices.Clip(top)
	}
	return cs
}

// sortedKeys reads column ci's non-NULL values as bare keys, counts the NULLs
// into cs and sorts the keys; val turns a key back into its value. The
// statistics build is half of a cold Tune on the benchmark's Sales data and
// the sort is most of the build: 8- or 16-byte keys sort several times faster
// than 48-byte Values compared through a kind switch, and numeric keys leave
// the collector no pointers to trace. A value of another kind than the
// column's, or a NaN (which Compare and the key order place differently),
// returns a nil at: the caller sorts the Values themselves.
func sortedKeys[K cmp.Ordered](t *Table, ci int, cs *ColStats, key func(storage.Value) K, val func(K) storage.Value) (n int, at func(i int) storage.Value) {
	kind := t.Schema.Columns[ci].Kind
	keys := make([]K, 0, len(t.Rows))
	var nulls int64
	for _, r := range t.Rows {
		v := r[ci]
		if v.Null {
			nulls++
			continue
		}
		k := key(v)
		if v.Kind != kind || k != k {
			return 0, nil
		}
		keys = append(keys, k)
	}
	cs.NullCount = nulls
	slices.Sort(keys)
	return len(keys), func(i int) storage.Value { return val(keys[i]) }
}

// sortedValues is sortedKeys for a column that mixes kinds.
func sortedValues(t *Table, ci int, cs *ColStats) (n int, at func(i int) storage.Value) {
	nonNull := make([]storage.Value, 0, len(t.Rows))
	for _, r := range t.Rows {
		if v := r[ci]; v.Null {
			cs.NullCount++
		} else {
			nonNull = append(nonNull, v)
		}
	}
	// Kind breaks ties between values that compare equal but key differently
	// (an int and a date with the same number), keeping each key's run
	// contiguous.
	slices.SortFunc(nonNull, func(a, b storage.Value) int {
		if c := a.Compare(b); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	return len(nonNull), func(i int) storage.Value { return nonNull[i] }
}

// mcvBefore orders most-common-value entries: more frequent first, ties by
// key.
func mcvBefore(a, b MCV) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return less(a.Key, b.Key)
}

func less(a, b storage.ValueKey) bool {
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

func valueWidth(c storage.Column, v storage.Value) int {
	if w := c.Width(); w > 0 {
		return w
	}
	return 2 + len(v.Str)
}

// DistinctPrefix returns the exact number of distinct combinations of the
// given columns in the table (computed once, then cached). The deduction
// model (Section 4.2) needs |AB| in addition to |A| and |B| because columns
// may be correlated.
func (t *Table) DistinctPrefix(cols []string) int64 {
	if len(cols) == 0 {
		return 1
	}
	st := t.Stats()
	key := strings.ToLower(strings.Join(cols, "\x00"))
	st.mu.Lock()
	if v, ok := st.distinctPrefix[key]; ok {
		st.mu.Unlock()
		return v
	}
	st.mu.Unlock()
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = t.Schema.ColIndex(c)
		if idx[i] < 0 {
			panic(fmt.Sprintf("catalog: table %s has no column %q", t.Name, c))
		}
	}
	seen := make(map[string]struct{}, 1024)
	var buf []byte
	for _, r := range t.Rows {
		buf = buf[:0]
		for _, i := range idx {
			buf = appendKey(buf, r[i])
		}
		seen[string(buf)] = struct{}{}
	}
	n := int64(len(seen))
	st.mu.Lock()
	st.distinctPrefix[key] = n
	st.mu.Unlock()
	return n
}

func appendKey(dst []byte, v storage.Value) []byte {
	if v.Null {
		return append(dst, 0xFF, 0x00)
	}
	switch v.Kind {
	case storage.KindString:
		dst = append(dst, 0x01)
		dst = append(dst, v.Str...)
		return append(dst, 0x00)
	case storage.KindFloat:
		dst = append(dst, 0x02)
		u := uint64(int64(v.Float * 1e9)) // good enough for distinct counting
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(u>>uint(s)))
		}
		return append(dst, 0x00)
	default:
		dst = append(dst, 0x03)
		u := uint64(v.Int)
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(u>>uint(s)))
		}
		return append(dst, 0x00)
	}
}
