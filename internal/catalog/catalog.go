// Package catalog holds the logical database: tables with rows, primary and
// foreign keys, and the per-column statistics that the query optimizer and
// the size-estimation framework consume for cardinality estimation — the
// same statistics the paper assumes the optimizer maintains (Section 2.2).
//
// Statistics come in two tiers per column. Row count, NULL count and average
// width come from one pass over the rows when a table's Stats is built; they
// are all that index widths and sizes need. Distinct count, min/max, the
// equi-depth histogram and the most common values need the column sorted,
// and are built per column on first request (Stats.Col), or for a batch of
// columns at once (SortColumns, one row pass per table), so a tune sorts
// only the columns its workload's predicates (and MV candidates' GROUP BYs)
// name. A dense INT or DATE column is placed by a counting sort, with no
// comparisons.
package catalog

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
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
// the Stats: one pass over the rows counts every column's NULLs and sums the
// widths of a variable-width column's values (a fixed-width column's width is
// its type's). The second, the sorted part of a column (Distinct, Min/Max,
// Hist, MCVs), is built the first time Col or SortColumns asks for that
// column, once, whichever goroutine asks; a column no selectivity or row
// estimate reads is never sorted. Both tiers, and DistinctPrefix, describe the
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

	mu             sync.Mutex
	distinctPrefix map[string]int64 // cache: joined lowercase col list -> count
}

// colSlot holds one column's statistics: NullCount and AvgWidth from the
// build, the rest from the first Col or SortColumns that asks.
type colSlot struct {
	cs     ColStats
	once   sync.Once
	sorted atomic.Bool
}

func newStats(t *Table, buckets int) *Stats {
	return &Stats{
		RowCount:       t.RowCount(),
		schema:         t.Schema,
		rows:           slices.Clone(t.Rows),
		buckets:        buckets,
		cols:           make([]colSlot, len(t.Schema.Columns)),
		distinctPrefix: make(map[string]int64),
	}
}

// Col returns the full statistics of the named column (nil if unknown),
// sorting the column first if no caller has asked for it yet.
func (s *Stats) Col(name string) *ColStats {
	ci := s.schema.ColIndex(name)
	if ci < 0 {
		return nil
	}
	s.sortColumn(ci, nil)
	return &s.cols[ci].cs
}

// AvgWidth returns the named column's average non-NULL value width (0 if the
// column is unknown or all NULL). It reads the first tier only, so it never
// sorts.
func (s *Stats) AvgWidth(name string) float64 {
	if ci := s.schema.ColIndex(name); ci >= 0 {
		return s.cols[ci].cs.AvgWidth
	}
	return 0
}

// Sorted reports whether the named column's sorted statistics are built.
func (s *Stats) Sorted(name string) bool {
	ci := s.schema.ColIndex(name)
	return ci >= 0 && s.cols[ci].sorted.Load()
}

// sortColumn builds column ci's sorted tier, once, from keys: the column's
// keys a SortColumns pass has read, or nil for a row pass of its own. It is
// the one builder of the sorted tier.
func (s *Stats) sortColumn(ci int, keys *columnKeys) {
	c := &s.cols[ci]
	c.once.Do(func() {
		if keys == nil {
			keys = &readKeys(s.schema, s.rows, []int{ci})[0]
		}
		keys.fill(s.rows, s.buckets, &c.cs)
		c.sorted.Store(true)
	})
}

// countChunk is the fewest rows BuildStats gives a worker of its own.
const countChunk = 8192

// BuildStats produces the table's statistics with the given histogram bucket
// count: the first tier of every column now, in one pass over the rows (cut
// into chunks counted by up to GOMAXPROCS workers; integer counts add up in
// any order), and each column's sorted tier on its first Col or SortColumns.
func BuildStats(t *Table, buckets int) *Stats {
	st := newStats(t, buckets)
	cols := st.schema.Columns
	widths := make([]int, len(cols))
	for ci, col := range cols {
		widths[ci] = col.Width()
	}
	rows := st.rows
	workers := max(1, min(runtime.GOMAXPROCS(0), len(rows)/countChunk))
	// counts[w] holds worker w's NULL count of each column, then its width
	// sum of each variable-width column.
	counts := make([][]int64, workers)
	par.For(workers, workers, func(w int) {
		c := make([]int64, 2*len(cols))
		nulls, sums := c[:len(cols)], c[len(cols):]
		for _, r := range rows[w*len(rows)/workers : (w+1)*len(rows)/workers] {
			for ci, width := range widths {
				switch v := &r[ci]; {
				case v.Null:
					nulls[ci]++
				case width <= 0:
					sums[ci] += int64(2 + len(v.Str)) // length prefix and bytes
				}
			}
		}
		counts[w] = c
	})
	for ci, width := range widths {
		var nulls, widthSum int64
		for _, c := range counts {
			nulls += c[ci]
			widthSum += c[len(cols)+ci]
		}
		cs := &st.cols[ci].cs
		cs.NullCount = nulls
		n := st.RowCount - nulls
		if n == 0 {
			continue
		}
		if width > 0 {
			widthSum = int64(width) * n
		}
		cs.AvgWidth = float64(widthSum) / float64(n)
	}
	return st
}

// ColumnRef names one column of one table.
type ColumnRef struct {
	Table *Table
	Col   string
}

// SortColumns builds the sorted tier of the named columns that no caller has
// sorted yet, on up to workers goroutines, with the result Col would give:
// one pass over each table's rows reads the keys of all its named columns,
// then each column is sorted and summarized on its own. Unknown columns are
// skipped.
func SortColumns(workers int, cols []ColumnRef) {
	type table struct {
		t     *Table
		st    *Stats
		names []string
		keys  []columnKeys
	}
	var tables []*table
	byTable := make(map[*Table]*table)
	for _, c := range cols {
		tb := byTable[c.Table]
		if tb == nil {
			tb = &table{t: c.Table}
			byTable[c.Table] = tb
			tables = append(tables, tb)
		}
		tb.names = append(tb.names, c.Col)
	}
	par.For(workers, len(tables), func(i int) {
		tb := tables[i]
		tb.st = tb.t.Stats()
		var cis []int
		for _, name := range tb.names {
			if ci := tb.st.schema.ColIndex(name); ci >= 0 && !tb.st.cols[ci].sorted.Load() && !slices.Contains(cis, ci) {
				cis = append(cis, ci)
			}
		}
		tb.keys = readKeys(tb.st.schema, tb.st.rows, cis)
	})
	type column struct {
		st   *Stats
		keys *columnKeys
	}
	var todo []column
	for _, tb := range tables {
		for j := range tb.keys {
			todo = append(todo, column{tb.st, &tb.keys[j]})
		}
	}
	par.For(workers, len(todo), func(i int) {
		todo[i].st.sortColumn(todo[i].keys.ci, todo[i].keys)
	})
}

// columnKeys holds column ci's non-NULL values in row order as bare keys of
// the column's kind: an INT or DATE column's in ints (all within lo..hi), a
// float column's in floats, a string column's in strs. A value of another
// kind than the column's, or a NaN (which Compare and the key order place
// differently), sets mixed: the column's Values are sorted instead.
type columnKeys struct {
	ci     int
	kind   storage.Kind
	mixed  bool
	ints   []int64
	lo, hi int64
	floats []float64
	strs   []string
}

// readKeys reads the keys of columns cis in one pass over rows.
func readKeys(schema *storage.Schema, rows []storage.Row, cis []int) []columnKeys {
	ks := make([]columnKeys, len(cis))
	for j, ci := range cis {
		k := &ks[j]
		k.ci, k.kind = ci, schema.Columns[ci].Kind
		switch k.kind {
		case storage.KindInt, storage.KindDate:
			k.ints, k.lo, k.hi = make([]int64, 0, len(rows)), math.MaxInt64, math.MinInt64
		case storage.KindFloat:
			k.floats = make([]float64, 0, len(rows))
		case storage.KindString:
			k.strs = make([]string, 0, len(rows))
		default:
			k.mixed = true
		}
	}
	for _, r := range rows {
		for j := range ks {
			k := &ks[j]
			v := &r[k.ci]
			switch {
			case v.Null || k.mixed:
			case v.Kind != k.kind:
				k.mixed = true
			case k.ints != nil:
				k.ints = append(k.ints, v.Int)
				k.lo, k.hi = min(k.lo, v.Int), max(k.hi, v.Int)
			case k.floats != nil:
				if v.Float != v.Float {
					k.mixed = true
				} else {
					k.floats = append(k.floats, v.Float)
				}
			default:
				k.strs = append(k.strs, v.Str)
			}
		}
	}
	return ks
}

// denseSpan bounds the span of an INT/DATE column that fill places by
// counting, as a multiple of its non-NULL count: the bound index.rankDense
// ranks deploy's key columns under. Past it the counts array outweighs the
// keys, and the keys are sorted.
const denseSpan = 4

// fill sorts the keys and reads column ci's sorted tier off them into cs:
// distinct count, most common values, min/max and the equi-depth histogram.
// The sort is most of a column's statistics. An INT/DATE column whose values
// span under denseSpan × their count is placed by a counting sort; any other
// bare key sorts with slices.Sort (8- or 16-byte keys, several times faster
// than 48-byte Values compared through a kind switch); a mixed column sorts
// its Values, read from rows.
func (k *columnKeys) fill(rows []storage.Row, buckets int, cs *ColStats) {
	kind := k.kind
	switch {
	case k.mixed:
		values := sortedValues(rows, k.ci)
		// A run is a stretch of equal keys: run[i] names the first
		// position of i's run. A histogram bound never splits values that
		// compare equal, whatever their keys.
		run := make([]int, len(values))
		for i := range values {
			if run[i] = i; i > 0 && values[i].Key() == values[i-1].Key() {
				run[i] = run[i-1]
			}
		}
		summarize(run, func(i int) storage.Value { return values[i] },
			func(i, j int) bool { return values[i].Compare(values[j]) == 0 }, buckets, cs)
	case k.ints != nil:
		if span := k.hi - k.lo; span >= 0 && span < denseSpan*int64(len(k.ints)) {
			countSort(k.ints, k.lo, span)
		} else {
			slices.Sort(k.ints)
		}
		summarize(k.ints, func(i int) storage.Value { return storage.Value{Kind: kind, Int: k.ints[i]} }, nil, buckets, cs)
	case k.floats != nil:
		slices.Sort(k.floats)
		summarize(k.floats, func(i int) storage.Value { return storage.Value{Kind: kind, Float: k.floats[i]} }, nil, buckets, cs)
	default:
		slices.Sort(k.strs)
		summarize(k.strs, func(i int) storage.Value { return storage.Value{Kind: kind, Str: k.strs[i]} }, nil, buckets, cs)
	}
	*k = columnKeys{} // a batch's other columns need not keep these keys alive
}

// countSort sorts keys, every one within lo..lo+span, by counting them:
// O(len(keys) + span).
func countSort(keys []int64, lo, span int64) {
	counts := make([]int32, span+1)
	for _, x := range keys {
		counts[x-lo]++
	}
	i := 0
	for d, c := range counts {
		for ; c > 0; c-- {
			keys[i] = lo + int64(d)
			i++
		}
	}
}

// summarize reads a column's sorted tier off its sorted keys; val(i) is the
// value at sorted position i. Equal keys form one run: one distinct value. A
// histogram bucket extends over the keys equal to its last and, when tie is
// set, over the positions tie reports compare equal as values.
func summarize[K comparable](keys []K, val func(i int) storage.Value, tie func(i, j int) bool, buckets int, cs *ColStats) {
	n := len(keys)
	if n == 0 {
		return
	}
	cs.Min, cs.Max = val(0), val(n-1)
	cs.Hist = histogram(keys, val, tie, buckets)

	// One pass over the runs: count them, and keep the MCVLimit most
	// frequent in (count desc, key asc) order. A run less frequent than a
	// full list's last never enters it, and needs no key.
	top := make([]MCV, 0, MCVLimit+1)
	for i := 0; i < n; {
		end := i + 1
		for end < n && keys[end] == keys[i] {
			end++
		}
		cs.Distinct++
		count := int64(end - i)
		if len(top) == MCVLimit && count < top[MCVLimit-1].Count {
			i = end
			continue
		}
		run := MCV{Key: val(i).Key(), Count: count}
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

// sortedValues returns column ci's non-NULL Values sorted, for a column that
// mixes kinds or holds a NaN. The order is CompareTotal's, which places NaNs
// first (Compare ties a NaN with every value, so under it where a NaN lands,
// and whether equal values stay together, is up to the sort).
func sortedValues(rows []storage.Row, ci int) []storage.Value {
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
		if c := a.CompareTotal(b); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	return nonNull
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

// DistinctPrefix returns the exact number of distinct combinations of the
// given columns among the rows the table's statistics describe (computed once
// per Stats, then cached). The deduction model (Section 4.2) needs |AB| in
// addition to |A| and |B| because columns may be correlated. A column the
// table does not have is an error.
func (t *Table) DistinctPrefix(cols []string) (int64, error) {
	if len(cols) == 0 {
		return 1, nil
	}
	st := t.Stats()
	idx := make([]int, len(cols))
	for i, c := range cols {
		if idx[i] = st.schema.ColIndex(c); idx[i] < 0 {
			return 0, fmt.Errorf("catalog: table %s has no column %q", t.Name, c)
		}
	}
	key := strings.ToLower(strings.Join(cols, "\x00"))
	st.mu.Lock()
	if v, ok := st.distinctPrefix[key]; ok {
		st.mu.Unlock()
		return v, nil
	}
	st.mu.Unlock()
	seen := make(map[string]struct{}, 1024)
	var buf []byte
	for _, r := range st.rows {
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
	return n, nil
}

// appendKey appends v's encoding to a distinct-prefix key: a tag, then the
// value's bytes. A float is keyed by its bits with −0 folded into +0, so two
// floats share a key exactly when they are equal.
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
		f := v.Float
		if f == 0 {
			f = 0 // −0 → +0
		}
		dst = append(dst, 0x02)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
		return append(dst, 0x00)
	default:
		dst = append(dst, 0x03)
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int))
		return append(dst, 0x00)
	}
}
