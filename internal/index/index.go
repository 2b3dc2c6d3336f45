// Package index defines physical design structures — clustered and secondary
// indexes, partial (filtered) indexes and indexes on materialized views — and
// builds them: materialize the rows and sort by key, then either size them
// with the compression size model (Build) or pack them into compressed
// pages (BuildSegments).
package index

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// MVDef describes a materialized view in the supported class (Appendix B):
// a fact table, optional key/foreign-key joins to dimension tables, an
// optional WHERE clause, and an optional GROUP BY with aggregates. MVs with
// grouping always carry a hidden COUNT(*) column (required for incremental
// maintenance; also the frequency statistic the Adaptive Estimator consumes).
type MVDef struct {
	Name    string
	Fact    string
	Joins   []workload.Join
	Where   []workload.Predicate
	GroupBy []workload.ColRef
	Aggs    []workload.Aggregate
}

// Fingerprint returns a canonical identity string for MV matching.
func (m *MVDef) Fingerprint() string {
	var b strings.Builder
	b.WriteString(strings.ToLower(m.Fact))
	for _, j := range m.Joins {
		b.WriteString("|j:")
		b.WriteString(strings.ToLower(j.String()))
	}
	for _, p := range m.Where {
		b.WriteString("|w:")
		b.WriteString(strings.ToLower(p.String()))
	}
	for _, g := range m.GroupBy {
		b.WriteString("|g:")
		b.WriteString(strings.ToLower(g.String()))
	}
	for _, a := range m.Aggs {
		b.WriteString("|a:")
		b.WriteString(strings.ToLower(a.String()))
	}
	return b.String()
}

// ColumnTable returns the catalog table whose statistics describe an MV
// column reference: the named table if it has the column, else the fact
// table, else the first joined table that has it; nil if none does.
func (m *MVDef) ColumnTable(db *catalog.Database, c workload.ColRef) *catalog.Table {
	names := []string{c.Table, m.Fact}
	for _, j := range m.Joins {
		names = append(names, j.RightTable, j.LeftTable)
	}
	for _, n := range names {
		if t := db.Table(n); t != nil && t.Schema.Has(c.Col) {
			return t
		}
	}
	return nil
}

// Def describes one index (possibly hypothetical).
type Def struct {
	// Table is the base table, or the MV name when MV is set.
	Table string
	// KeyCols are the sort-key columns, in order.
	KeyCols []string
	// IncludeCols are non-key columns carried in the leaf level.
	IncludeCols []string
	// Clustered marks the table's clustered index (contains all columns).
	Clustered bool
	// Where, when non-empty, makes this a partial (filtered) index.
	Where []workload.Predicate
	// MV, when set, makes this an index on the materialized view.
	MV *MVDef
	// Method is the compression method (compress.None when uncompressed).
	// When ColMethods is non-empty it is the default of a per-column design.
	Method compress.Method
	// ColMethods optionally overrides Method per leaf column (keys are
	// lower-cased column names), making this a mixed per-column compression
	// design. Entries equal to Method are ignored.
	ColMethods map[string]compress.Method
}

// MethodFor returns the compression method of one leaf column under the
// definition's design.
func (d *Def) MethodFor(col string) compress.Method {
	if len(d.ColMethods) == 0 {
		return d.Method
	}
	if m, ok := d.ColMethods[strings.ToLower(col)]; ok {
		return m
	}
	return d.Method
}

// IsMixed reports whether the definition carries per-column overrides that
// differ from the default method. Allocation-free: it sits on the cost
// model's per-what-if α/β path.
func (d *Def) IsMixed() bool {
	for _, m := range d.ColMethods {
		if m != d.Method {
			return true
		}
	}
	return false
}

// designSig canonicalizes the per-column overrides: sorted "col=METHOD"
// entries for overrides that differ from the default, joined by commas.
// Empty for uniform designs.
func (d *Def) designSig() string {
	if len(d.ColMethods) == 0 {
		return ""
	}
	parts := make([]string, 0, len(d.ColMethods))
	for c, m := range d.ColMethods {
		if m != d.Method {
			parts = append(parts, strings.ToLower(c)+"="+m.String())
		}
	}
	if len(parts) == 0 {
		return ""
	}
	slices.Sort(parts)
	return strings.Join(parts, ",")
}

// Columns returns key + include columns (no duplicates, preserving order).
func (d *Def) Columns() []string {
	seen := make(map[string]bool, len(d.KeyCols)+len(d.IncludeCols))
	var out []string
	for _, c := range d.KeyCols {
		lc := strings.ToLower(c)
		if !seen[lc] {
			seen[lc] = true
			out = append(out, c)
		}
	}
	for _, c := range d.IncludeCols {
		lc := strings.ToLower(c)
		if !seen[lc] {
			seen[lc] = true
			out = append(out, c)
		}
	}
	return out
}

// IsPartial reports whether the index is filtered.
func (d *Def) IsPartial() bool { return len(d.Where) > 0 }

// IsMV reports whether the index is on a materialized view.
func (d *Def) IsMV() bool { return d.MV != nil }

// WithMethod returns a copy of the definition using the given uniform
// compression method (any per-column overrides are dropped).
func (d Def) WithMethod(m compress.Method) *Def {
	d.Method = m
	d.ColMethods = nil
	return &d
}

// WithColMethod returns a copy of the definition with one column's method
// overridden (the rest of the design is preserved).
func (d Def) WithColMethod(col string, m compress.Method) *Def {
	cm := make(map[string]compress.Method, len(d.ColMethods)+1)
	for c, mm := range d.ColMethods {
		cm[c] = mm
	}
	cm[strings.ToLower(col)] = m
	d.ColMethods = cm
	return &d
}

// Uncompressed returns the uncompressed variant of the definition.
func (d Def) Uncompressed() *Def { return d.WithMethod(compress.None) }

// ID returns a canonical identity string: same ID ⇒ same physical structure.
// Every estimation cache and plan node is keyed on it, so it renders into one
// pre-sized builder.
func (d *Def) ID() string {
	sig := d.designSig()
	var b strings.Builder
	d.writeStructure(&b, len(sig)+8)
	b.WriteByte(' ')
	b.WriteString(d.Method.String())
	if sig != "" {
		b.WriteByte('[')
		b.WriteString(sig)
		b.WriteByte(']')
	}
	return b.String()
}

// StructureID is ID without the compression design: variants of the same
// index share it.
func (d *Def) StructureID() string {
	var b strings.Builder
	d.writeStructure(&b, 0)
	return b.String()
}

// writeStructure renders the structure part of ID into b, growing b first
// to hold it and extra more bytes: "CL:" for clustered, the lowercase table,
// key columns and sorted include columns, each WHERE predicate and the MV's
// fingerprint.
func (d *Def) writeStructure(b *strings.Builder, extra int) {
	var where []string
	var mv string
	n := len("CL:()") + len(d.Table) + extra
	for _, c := range d.KeyCols {
		n += len(c) + 1
	}
	for _, c := range d.IncludeCols {
		n += len(c) + 1
	}
	if len(d.IncludeCols) > 0 {
		n += len(" incl ")
	}
	if len(d.Where) > 0 {
		where = make([]string, len(d.Where))
		for i, p := range d.Where {
			where[i] = strings.ToLower(p.String())
			n += len(" where ") + len(where[i])
		}
	}
	if d.MV != nil {
		mv = d.MV.Fingerprint()
		n += len(" on mv{}") + len(mv)
	}
	b.Grow(n)
	if d.Clustered {
		b.WriteString("CL:")
	}
	b.WriteString(strings.ToLower(d.Table))
	b.WriteByte('(')
	writeLowerList(b, d.KeyCols)
	if len(d.IncludeCols) > 0 {
		b.WriteString(" incl ")
		writeLowerList(b, slices.Sorted(slices.Values(d.IncludeCols)))
	}
	b.WriteByte(')')
	for _, w := range where {
		b.WriteString(" where ")
		b.WriteString(w)
	}
	if d.MV != nil {
		b.WriteString(" on mv{")
		b.WriteString(mv)
		b.WriteByte('}')
	}
}

// writeLowerList writes the lowercase names joined by commas.
func writeLowerList(b *strings.Builder, names []string) {
	for i, c := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strings.ToLower(c))
	}
}

// String renders a DDL-ish description.
func (d *Def) String() string {
	kind := "INDEX"
	if d.Clustered {
		kind = "CLUSTERED INDEX"
	}
	s := fmt.Sprintf("%s ON %s(%s)", kind, d.Table, strings.Join(d.KeyCols, ", "))
	if len(d.IncludeCols) > 0 {
		s += fmt.Sprintf(" INCLUDE(%s)", strings.Join(d.IncludeCols, ", "))
	}
	if len(d.Where) > 0 {
		parts := make([]string, len(d.Where))
		for i, p := range d.Where {
			parts[i] = p.String()
		}
		s += " WHERE " + strings.Join(parts, " AND ")
	}
	if d.MV != nil {
		s += " [MV " + d.MV.Name + "]"
	}
	if sig := d.designSig(); sig != "" {
		s += " COMPRESS " + d.Method.String() + "[" + sig + "]"
	} else if d.Method != compress.None {
		s += " COMPRESS " + d.Method.String()
	}
	return s
}

// Physical is a fully built index with measured sizes.
type Physical struct {
	Def    *Def
	Schema *storage.Schema
	// Rows is the number of leaf entries.
	Rows int64
	// UncompressedBytes is the leaf payload before compression.
	UncompressedBytes int64
	// Bytes is the leaf payload under Def.Method.
	Bytes int64
	// Pages is Bytes in pages.
	Pages int64
}

// CF returns the measured compression fraction.
func (p *Physical) CF() float64 {
	if p.UncompressedBytes == 0 {
		return 1
	}
	return float64(p.Bytes) / float64(p.UncompressedBytes)
}

// MaterializeRows produces the leaf rows (and their schema) of the index over
// the given database, already sorted by the key columns. Non-clustered
// indexes carry an 8-byte row locator column. For MV indexes the view is
// materialized first.
func MaterializeRows(db *catalog.Database, d *Def) (*storage.Schema, []storage.Row, error) {
	schema, leaf, err := (&buildBatch{db: db}).leafRows(d)
	return schema, leaf.rows, err
}

// MaterializeOver builds the index leaf rows over an explicit base row set
// instead of the catalog table — this is how SampleCF builds an index on a
// sample (Section 2.2). It is a build batch of one.
func MaterializeOver(baseSchema *storage.Schema, baseRows []storage.Row, d *Def) (*storage.Schema, []storage.Row, error) {
	schema, leaf, err := buildLeafRows(baseSchema, baseRows, d, nil, newLeafSlab)
	return schema, leaf.rows, err
}

// buildBatch is what the builds of one BuildSegments call share: each
// (table, key column)'s ranks, computed once by whichever build needs them
// first, and the leaf slabs finished builds gave back. Neither outlives the
// batch, so a build after a write ranks the rows it sees.
type buildBatch struct {
	db    *catalog.Database
	ranks sync.Map // *catalog.Table -> []sharedRanks, one per column

	mu   sync.Mutex
	free []leafSlab
}

type sharedRanks struct {
	once sync.Once
	rank []int32
}

// leafSlab is the memory a structure's leaf rows are laid out in: the values,
// row-major, and the row headers over them. vals is nil when the rows are not
// the build's own (a heap's leaf rows are its base rows).
type leafSlab struct {
	vals []storage.Value
	rows []storage.Row
}

func newLeafSlab(cells, n int) leafSlab {
	return leafSlab{vals: make([]storage.Value, cells), rows: make([]storage.Row, n)}
}

// poisonRecycledSlab, when a test sets it, scribbles every leaf slab the
// build fan-out puts back for reuse, so a segment, low key or codec that
// kept leaf-row memory past its build reads garbage at once rather than
// whenever the slab happens to be reused.
var poisonRecycledSlab func(vals []storage.Value, rows []storage.Row)

// take hands a build the smallest free slab that holds cells values and n
// rows, or a new one. A reused slab keeps its old contents: the build
// overwrites every cell it uses.
func (b *buildBatch) take(cells, n int) leafSlab {
	b.mu.Lock()
	best := -1
	for i, s := range b.free {
		if cap(s.vals) >= cells && cap(s.rows) >= n && (best < 0 || cap(s.vals) < cap(b.free[best].vals)) {
			best = i
		}
	}
	if best < 0 {
		b.mu.Unlock()
		return newLeafSlab(cells, n)
	}
	s := b.free[best]
	b.free = slices.Delete(b.free, best, best+1)
	b.mu.Unlock()
	return leafSlab{vals: s.vals[:cells], rows: s.rows[:n]}
}

// give returns a finished build's slab for the next build to reuse.
func (b *buildBatch) give(s leafSlab) {
	if cap(s.vals) == 0 {
		return
	}
	if poisonRecycledSlab != nil {
		poisonRecycledSlab(s.vals[:cap(s.vals)], s.rows[:cap(s.rows)])
	}
	b.mu.Lock()
	b.free = append(b.free, s)
	b.mu.Unlock()
}

// leafRows materializes one definition's leaf rows with the batch's ranks,
// into a slab from the batch.
func (b *buildBatch) leafRows(d *Def) (*storage.Schema, leafSlab, error) {
	if d.MV != nil {
		schema, rows, err := MaterializeMV(b.db, d.MV)
		if err != nil {
			return nil, leafSlab{}, err
		}
		return buildLeafRows(schema, rows, d, nil, b.take)
	}
	t := b.db.Table(d.Table)
	if t == nil {
		return nil, leafSlab{}, fmt.Errorf("index: unknown table %q", d.Table)
	}
	return buildLeafRows(t.Schema, t.Rows, d, func(ci int) []int32 {
		v, _ := b.ranks.LoadOrStore(t, make([]sharedRanks, len(t.Schema.Columns)))
		sr := &v.([]sharedRanks)[ci]
		sr.once.Do(func() { sr.rank = rankColumn(t.Rows, ci, t.Schema.Columns[ci].Kind) })
		return sr.rank
	}, b.take)
}

// buildLeafRows filters, projects in key order and appends the RID column.
// rank serves a key column's ranks over baseRows; nil (and a partial index,
// whose kept rows are its own) ranks the rows for this definition alone.
// slab supplies the memory for cells values and n rows.
func buildLeafRows(baseSchema *storage.Schema, baseRows []storage.Row, d *Def, rank func(ci int) []int32, slab func(cells, n int) leafSlab) (*storage.Schema, leafSlab, error) {
	for i, c := range d.KeyCols {
		if slices.ContainsFunc(d.KeyCols[:i], func(k string) bool { return strings.EqualFold(k, c) }) {
			return nil, leafSlab{}, fmt.Errorf("index: %s repeats key column %q", d, c)
		}
	}
	// Filter for partial indexes.
	rows, err := FilterRows(baseSchema, baseRows, d.Where)
	if err != nil {
		return nil, leafSlab{}, err
	}
	if rank == nil || d.IsPartial() {
		rank = func(ci int) []int32 { return rankColumn(rows, ci, baseSchema.Columns[ci].Kind) }
	}

	proj, err := newLeafProjection(baseSchema, d)
	if err != nil {
		return nil, leafSlab{}, err
	}
	if proj.heap {
		// Every column in table order and nothing to sort by, so the base
		// rows are the leaf rows.
		return proj.schema, leafSlab{rows: rows}, nil
	}
	keyIdx := make([]int, len(d.KeyCols))
	for k, c := range d.KeyCols {
		keyIdx[k] = baseSchema.ColIndex(c)
	}

	// Project in key order into one slab, so the packer walks memory
	// sequentially. Every cell is written: the slab may be a reused one.
	width := len(proj.schema.Columns)
	out := slab(len(rows)*width, len(rows))
	for j, i := range keyOrder(rows, keyIdx, rank) {
		row := out.vals[j*width : (j+1)*width : (j+1)*width]
		proj.fill(row, rows[i], int64(i))
		out.rows[j] = row
	}
	return proj.schema, out, nil
}

// leafProjection maps a base row onto a structure's leaf row: the leaf
// columns in leaf order, then the base row's RID when the structure carries
// one. A build and an UPDATE's overlay (SegmentIndex.Overlay) project
// through the same one.
type leafProjection struct {
	schema *storage.Schema // the leaf schema
	colIdx []int           // leaf column -> base column
	addRID bool
	// heap means the leaf row is the base row itself: every column in table
	// order, no RID, no key.
	heap bool
}

func newLeafProjection(baseSchema *storage.Schema, d *Def) (*leafProjection, error) {
	var cols []string
	if d.Clustered {
		cols = baseSchema.Names()
		// Clustered key columns must lead, keeping the full column set.
		cols = reorderLeading(cols, d.KeyCols)
	} else {
		cols = d.Columns()
	}
	for _, c := range cols {
		if !baseSchema.Has(c) {
			return nil, fmt.Errorf("index: column %q not in %s", c, d.Table)
		}
	}
	p := &leafProjection{schema: baseSchema.Project(cols), colIdx: make([]int, len(cols)), addRID: !d.Clustered}
	for i, c := range cols {
		p.colIdx[i] = baseSchema.ColIndex(c)
	}
	if p.addRID {
		outCols := append(append([]storage.Column{}, p.schema.Columns...), storage.Column{Name: "__rid", Kind: storage.KindInt})
		p.schema = storage.NewSchema(outCols...)
	}
	p.heap = len(d.KeyCols) == 0 && !p.addRID
	return p, nil
}

// fill writes the leaf row of base row rid into row, which is as wide as the
// leaf schema.
func (p *leafProjection) fill(row, base storage.Row, rid int64) {
	for c, ci := range p.colIdx {
		row[c] = base[ci]
	}
	if p.addRID {
		row[len(row)-1] = storage.IntVal(rid)
	}
}

// rankColumn returns each row's dense rank in column ci under Value.Compare:
// NULL = 0, equal values share a rank, the rest count up from 1. It returns
// nil for a column only the comparator can order — one holding a value of
// another kind than the column's, or a NaN, which Compare and a key order
// place differently (catalog.sortedValues falls back the same way).
func rankColumn(rows []storage.Row, ci int, kind storage.Kind) []int32 {
	switch kind {
	case storage.KindInt, storage.KindDate:
		if rank, ok := rankDense(rows, ci, kind); ok {
			return rank
		}
		return rankBy(rows, ci, kind, func(v storage.Value) int64 { return v.Int })
	case storage.KindFloat:
		return rankBy(rows, ci, kind, func(v storage.Value) float64 { return v.Float })
	case storage.KindString:
		return rankBy(rows, ci, kind, func(v storage.Value) string { return v.Str })
	}
	return nil
}

// denseSpanFactor bounds the integer span rankDense counts over, as a
// multiple of the row count. The bound is memory, not time: at 4 the marks
// (4 bytes per value in the span) weigh what the sort's 16-byte (key,
// position) entries do, while counting stays the faster of the two up to a
// span of about 64 × rows (40 000 uniform rows, 2-vCPU Xeon). The dates and
// keys the benchmark designs order by span at most about one × rows.
const denseSpanFactor = 4

// rankDense ranks an integer column whose values span under denseSpanFactor
// × rows without sorting: mark the values present, number the marks in
// order, look each row's value up — O(rows + span). ok is false when the
// span is wider (or overflows int64) or the column holds a value of another
// kind, which the sort or the comparator then handles.
func rankDense(rows []storage.Row, ci int, kind storage.Kind) ([]int32, bool) {
	lo, hi, seen := int64(0), int64(0), false
	for _, r := range rows {
		if v := r[ci]; !v.Null {
			if v.Kind != kind {
				return nil, false
			}
			if !seen {
				lo, hi, seen = v.Int, v.Int, true
			}
			lo, hi = min(lo, v.Int), max(hi, v.Int)
		}
	}
	// span is 0 for an all-NULL column (every rank 0), and negative when
	// hi − lo overflowed.
	span := hi - lo
	if span < 0 || span >= denseSpanFactor*int64(len(rows)) {
		return nil, false
	}
	rank, mark := make([]int32, len(rows)), make([]int32, span+1)
	for _, r := range rows {
		if v := r[ci]; !v.Null {
			mark[v.Int-lo] = 1
		}
	}
	next := int32(0)
	for i, m := range mark {
		if m != 0 {
			next++
			mark[i] = next
		}
	}
	for i, r := range rows {
		if v := r[ci]; !v.Null {
			rank[i] = mark[v.Int-lo]
		}
	}
	return rank, true
}

// rankBy ranks column ci by its bare keys: one typed sort of (key, position)
// pairs, then one pass handing out dense ranks.
func rankBy[K cmp.Ordered](rows []storage.Row, ci int, kind storage.Kind, key func(storage.Value) K) []int32 {
	type entry struct {
		k   K
		pos int32
	}
	es := make([]entry, 0, len(rows))
	for i, r := range rows {
		if v := r[ci]; !v.Null {
			if k := key(v); v.Kind == kind && k == k {
				es = append(es, entry{k, int32(i)})
			} else {
				return nil
			}
		}
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.k, b.k) })
	rank, r := make([]int32, len(rows)), int32(0)
	for i, e := range es {
		if i == 0 || es[i-1].k < e.k {
			r++
		}
		rank[e.pos] = r
	}
	return rank
}

// keyOrder returns the positions of rows sorted by the key columns keyIdx,
// ties by position — the order of a stable sort under Value.Compare — as a
// stable LSD counting sort over the columns' ranks: O(rows × keys), no
// comparisons. A column only the comparator can order sends the whole order
// through a comparison sort instead.
func keyOrder(rows []storage.Row, keyIdx []int, rank func(ci int) []int32) []int32 {
	order, next := make([]int32, len(rows)), make([]int32, len(rows))
	for i := range order {
		order[i] = int32(i)
	}
	ranks := make([][]int32, len(keyIdx))
	for k, ci := range keyIdx {
		if ranks[k] = rank(ci); ranks[k] == nil {
			slices.SortFunc(order, func(a, b int32) int {
				for _, ci := range keyIdx {
					if c := rows[a][ci].Compare(rows[b][ci]); c != 0 {
						return c
					}
				}
				return cmp.Compare(a, b)
			})
			return order
		}
	}
	for k := len(ranks) - 1; k >= 0; k-- {
		rk, count := ranks[k], make([]int32, len(rows)+2)
		for _, i := range order {
			count[rk[i]+1]++
		}
		for r := 1; r < len(count); r++ {
			count[r] += count[r-1]
		}
		for _, i := range order {
			next[count[rk[i]]] = i
			count[rk[i]]++
		}
		order, next = next, order
	}
	return order
}

// reorderLeading moves the key columns to the front of the column list,
// keeping the remaining order stable.
func reorderLeading(all []string, keys []string) []string {
	isKey := make(map[string]bool, len(keys))
	out := make([]string, 0, len(all))
	for _, k := range keys {
		isKey[strings.ToLower(k)] = true
		out = append(out, k)
	}
	for _, c := range all {
		if !isKey[strings.ToLower(c)] {
			out = append(out, c)
		}
	}
	return out
}

// Build materializes the index and sizes it with the size model.
func Build(db *catalog.Database, d *Def) (*Physical, error) {
	schema, rows, err := MaterializeRows(db, d)
	if err != nil {
		return nil, err
	}
	return BuildFromRows(schema, rows, d)
}

// BuildFromRows sizes an index over pre-materialized, pre-sorted leaf rows
// with the size model. A design naming an unknown method is an error.
func BuildFromRows(schema *storage.Schema, rows []storage.Row, d *Def) (*Physical, error) {
	bytes, err := compress.MeasureDesignSizes(schema, rows).SizeFor(d.Method, d.ColMethods)
	if err != nil {
		return nil, fmt.Errorf("index: %s: %w", d, err)
	}
	return &Physical{
		Def:               d,
		Schema:            schema,
		Rows:              int64(len(rows)),
		UncompressedBytes: storage.PackedBytes(schema, rows),
		Bytes:             bytes,
		Pages:             storage.PagesForBytes(bytes),
	}, nil
}
