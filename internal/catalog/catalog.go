// Package catalog holds the logical database: tables with rows, primary and
// foreign keys, and the per-column statistics that the query optimizer and
// the size-estimation framework consume for cardinality estimation — the
// same statistics the paper assumes the optimizer maintains (Section 2.2).
//
// Statistics come in two tiers per column. Row count, NULL count and average
// width come from one unsorted pass when a table's Stats is built; they are
// all that index widths and sizes need. Distinct count, min/max, the
// equi-depth histogram and the most common values need the column sorted,
// and are built per column on first request, so a tune sorts only the
// columns its workload's predicates (and MV candidates' GROUP BYs) name.
package catalog

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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

// Stats returns the table statistics, building their first tier on the
// first call after construction or InvalidateStats.
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
// size the table had cached or computes now; nothing invalidates them. The
// statistics describe the rows of the call even for a column first sorted
// after a later write, since a Stats keeps its own copy of the row headers:
// a snapshot costs what it was taken over, and sorts nothing the tune before
// it already sorted. Its rows are the call's row slice, which later writes
// may rewrite in place: read a snapshot's statistics, never its rows.
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

// Stats bundles a table's statistics in two tiers. The first is built with
// the Stats: one unsorted pass per column yields its NULL count and average
// width (a fixed-width column needs only the NULL count). The second, the
// sorted part of a column (Distinct, Min/Max, Hist, MCVs), is built the first
// time Col asks for that column, once, whichever goroutine asks; a column no
// selectivity or row estimate reads is never sorted. Both tiers describe the
// rows the Stats was built over: it keeps its own copy of the row headers, so
// a column sorted after an UPDATE (copy-on-write rows) or a DELETE (which
// compacts Table.Rows in place) still describes the rows before the write.
// The distinct-prefix cache is guarded for concurrent readers.
type Stats struct {
	RowCount int64

	schema  *storage.Schema
	rows    []storage.Row // the rows the statistics describe, frozen at build
	buckets int
	cols    []colSlot // by column ordinal
	byName  map[string]int

	mu             sync.Mutex
	distinctPrefix map[string]int64 // cache: joined lowercase col list -> count
}

// colSlot holds one column's statistics: NullCount and AvgWidth from the
// build, the rest from the first Col that asks.
type colSlot struct {
	cs     ColStats
	once   sync.Once
	sorted atomic.Bool
}

func newStats(t *Table, buckets int) *Stats {
	st := &Stats{
		RowCount:       t.RowCount(),
		schema:         t.Schema,
		rows:           slices.Clone(t.Rows),
		buckets:        buckets,
		cols:           make([]colSlot, len(t.Schema.Columns)),
		byName:         make(map[string]int, len(t.Schema.Columns)),
		distinctPrefix: make(map[string]int64),
	}
	for ci, col := range t.Schema.Columns {
		st.byName[strings.ToLower(col.Name)] = ci
	}
	return st
}

// Col returns the full statistics of the named column (nil if unknown),
// sorting the column first if no caller has asked for it yet.
func (s *Stats) Col(name string) *ColStats {
	ci, ok := s.byName[strings.ToLower(name)]
	if !ok {
		return nil
	}
	c := &s.cols[ci]
	c.once.Do(func() {
		sortColStats(s.schema.Columns[ci], s.rows, ci, s.buckets, &c.cs)
		c.sorted.Store(true)
	})
	return &c.cs
}

// AvgWidth returns the named column's average non-NULL value width (0 if the
// column is unknown or all NULL). It reads the first tier only, so it never
// sorts.
func (s *Stats) AvgWidth(name string) float64 {
	if ci, ok := s.byName[strings.ToLower(name)]; ok {
		return s.cols[ci].cs.AvgWidth
	}
	return 0
}

// Sorted reports whether the named column's sorted statistics are built.
func (s *Stats) Sorted(name string) bool {
	ci, ok := s.byName[strings.ToLower(name)]
	return ok && s.cols[ci].sorted.Load()
}

// BuildStats produces the table's statistics with the given histogram bucket
// count: the first tier of every column now, in one unsorted pass per column
// (columns are independent, so they run concurrently into their own slots),
// and each column's sorted tier on its first Col.
func BuildStats(t *Table, buckets int) *Stats {
	st := newStats(t, buckets)
	par.For(runtime.GOMAXPROCS(0), len(st.cols), func(ci int) {
		countColumn(t.Schema.Columns[ci], st.rows, ci, &st.cols[ci].cs)
	})
	return st
}

// countColumn fills the first tier of column ci: its NULL count and the
// average width of its non-NULL values.
func countColumn(col storage.Column, rows []storage.Row, ci int, cs *ColStats) {
	var nulls, widthSum int64
	w := col.Width()
	for _, r := range rows {
		v := r[ci]
		switch {
		case v.Null:
			nulls++
		case w <= 0:
			widthSum += int64(valueWidth(col, v))
		}
	}
	cs.NullCount = nulls
	n := int64(len(rows)) - nulls
	if n == 0 {
		return
	}
	if w > 0 {
		widthSum = int64(w) * n
	}
	cs.AvgWidth = float64(widthSum) / float64(n)
}

// sortColStats fills the sorted tier of column ci over rows. The column is
// sorted once and everything — distinct count, most common values, min/max,
// the equi-depth histogram — is read off the sorted runs.
func sortColStats(col storage.Column, rows []storage.Row, ci, buckets int, cs *ColStats) {
	// The column's non-NULL values in order: n of them, the i-th through at.
	var (
		n  int
		at func(i int) storage.Value
	)
	switch col.Kind {
	case storage.KindInt, storage.KindDate:
		n, at = sortedKeys(rows, ci, col.Kind,
			func(v storage.Value) int64 { return v.Int },
			func(k int64) storage.Value { return storage.Value{Kind: col.Kind, Int: k} })
	case storage.KindFloat:
		n, at = sortedKeys(rows, ci, col.Kind,
			func(v storage.Value) float64 { return v.Float },
			func(k float64) storage.Value { return storage.Value{Kind: col.Kind, Float: k} })
	case storage.KindString:
		n, at = sortedKeys(rows, ci, col.Kind,
			func(v storage.Value) string { return v.Str },
			func(k string) storage.Value { return storage.Value{Kind: col.Kind, Str: k} })
	}
	if at == nil {
		n, at = sortedValues(rows, ci)
	}
	if n == 0 {
		return
	}
	cs.Min = at(0)
	cs.Max = at(n - 1)
	cs.Hist = buildHistogram(n, at, buckets)

	// One pass over the runs of equal keys: count them, and keep the
	// MCVLimit most frequent in (count desc, key asc) order.
	top := make([]MCV, 0, MCVLimit+1)
	for i := 0; i < n; {
		key, end := at(i).Key(), i+1
		for end < n && at(end).Key() == key {
			end++
		}
		cs.Distinct++
		run := MCV{Key: key, Count: int64(end - i)}
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
	// Values that appear only once are never "common"; an MCV list is only
	// kept when it captures skew (the top value must beat the uniform
	// share).
	uniform := float64(n) / float64(cs.Distinct)
	if float64(top[0].Count) > uniform*1.05 || cs.Distinct <= MCVLimit {
		cs.MCVs = slices.Clip(top)
	}
}

// sortedKeys reads column ci's non-NULL values as bare keys and sorts them;
// val turns a key back into its value. The sort is most of a column's
// statistics: 8- or 16-byte keys sort several times faster than 48-byte
// Values compared through a kind switch, and numeric keys leave the collector
// no pointers to trace. A value of another kind than the column's, or a NaN
// (which Compare and the key order place differently), returns a nil at: the
// caller sorts the Values themselves.
func sortedKeys[K cmp.Ordered](rows []storage.Row, ci int, kind storage.Kind, key func(storage.Value) K, val func(K) storage.Value) (n int, at func(i int) storage.Value) {
	keys := make([]K, 0, len(rows))
	for _, r := range rows {
		v := r[ci]
		if v.Null {
			continue
		}
		k := key(v)
		if v.Kind != kind || k != k {
			return 0, nil
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return len(keys), func(i int) storage.Value { return val(keys[i]) }
}

// sortedValues is sortedKeys for a column that mixes kinds.
func sortedValues(rows []storage.Row, ci int) (n int, at func(i int) storage.Value) {
	nonNull := make([]storage.Value, 0, len(rows))
	for _, r := range rows {
		if v := r[ci]; !v.Null {
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
