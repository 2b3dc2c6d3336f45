// Package index defines physical design structures — clustered and secondary
// indexes, partial (filtered) indexes and indexes on materialized views — and
// builds them physically: materialize the rows, sort by key, pack into pages
// and compress with the chosen method. Built sizes are measured, not modeled.
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

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
		fmt.Fprintf(&b, "|j:%s", strings.ToLower(j.String()))
	}
	for _, p := range m.Where {
		fmt.Fprintf(&b, "|w:%s", strings.ToLower(p.String()))
	}
	for _, g := range m.GroupBy {
		fmt.Fprintf(&b, "|g:%s", strings.ToLower(g.String()))
	}
	for _, a := range m.Aggs {
		fmt.Fprintf(&b, "|a:%s", strings.ToLower(a.String()))
	}
	return b.String()
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
	sort.Strings(parts)
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
func (d *Def) ID() string {
	var b strings.Builder
	if d.Clustered {
		b.WriteString("CL:")
	}
	b.WriteString(strings.ToLower(d.Table))
	b.WriteString("(")
	b.WriteString(strings.ToLower(strings.Join(d.KeyCols, ",")))
	if len(d.IncludeCols) > 0 {
		inc := make([]string, len(d.IncludeCols))
		copy(inc, d.IncludeCols)
		sort.Strings(inc)
		b.WriteString(" incl ")
		b.WriteString(strings.ToLower(strings.Join(inc, ",")))
	}
	b.WriteString(")")
	for _, p := range d.Where {
		fmt.Fprintf(&b, " where %s", strings.ToLower(p.String()))
	}
	if d.MV != nil {
		fmt.Fprintf(&b, " on mv{%s}", d.MV.Fingerprint())
	}
	fmt.Fprintf(&b, " %s", d.Method)
	if sig := d.designSig(); sig != "" {
		fmt.Fprintf(&b, "[%s]", sig)
	}
	return b.String()
}

// StructureID is ID without the compression design: variants of the same
// index share it.
func (d *Def) StructureID() string {
	c := *d
	c.Method = compress.None
	c.ColMethods = nil
	id := c.ID()
	return strings.TrimSuffix(id, " "+compress.None.String())
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

// ridWidth is the byte width of the row locator appended to non-clustered
// index entries.
const ridWidth = 8

// MaterializeRows produces the leaf rows (and their schema) of the index over
// the given database, already sorted by the key columns. Non-clustered
// indexes carry an 8-byte row locator column. For MV indexes the view is
// materialized first.
func MaterializeRows(db *catalog.Database, d *Def) (*storage.Schema, []storage.Row, error) {
	var baseSchema *storage.Schema
	var baseRows []storage.Row
	if d.MV != nil {
		var err error
		baseSchema, baseRows, err = MaterializeMV(db, d.MV)
		if err != nil {
			return nil, nil, err
		}
	} else {
		t := db.Table(d.Table)
		if t == nil {
			return nil, nil, fmt.Errorf("index: unknown table %q", d.Table)
		}
		baseSchema, baseRows = t.Schema, t.Rows
	}
	return buildLeafRows(baseSchema, baseRows, d)
}

// MaterializeOver builds the index leaf rows over an explicit base row set
// instead of the catalog table — this is how SampleCF builds an index on a
// sample (Section 2.2).
func MaterializeOver(baseSchema *storage.Schema, baseRows []storage.Row, d *Def) (*storage.Schema, []storage.Row, error) {
	return buildLeafRows(baseSchema, baseRows, d)
}

// buildLeafRows filters, projects, appends the RID column and sorts.
func buildLeafRows(baseSchema *storage.Schema, baseRows []storage.Row, d *Def) (*storage.Schema, []storage.Row, error) {
	// Filter for partial indexes.
	rows := baseRows
	if d.IsPartial() {
		rows = make([]storage.Row, 0, len(baseRows)/4)
		for _, r := range baseRows {
			ok := true
			for _, p := range d.Where {
				if !p.Matches(baseSchema, r) {
					ok = false
					break
				}
			}
			if ok {
				rows = append(rows, r)
			}
		}
	}

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
			return nil, nil, fmt.Errorf("index: column %q not in %s", c, d.Table)
		}
	}
	schema := baseSchema.Project(cols)
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		colIdx[i] = baseSchema.ColIndex(c)
	}

	addRID := !d.Clustered
	outCols := schema.Columns
	if addRID {
		outCols = append(append([]storage.Column{}, outCols...), storage.Column{Name: "__rid", Kind: storage.KindInt})
		schema = storage.NewSchema(outCols...)
	}

	nKeys := len(d.KeyCols)
	if nKeys == 0 && !addRID {
		// A heap: every column in table order and nothing to sort by, so the
		// base rows are the leaf rows.
		return schema, rows, nil
	}

	// Project into one slab per structure rather than one allocation per row.
	width := len(outCols)
	slab := make([]storage.Value, len(rows)*width)
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		row := slab[i*width : (i+1)*width : (i+1)*width]
		for j, ci := range colIdx {
			row[j] = r[ci]
		}
		if addRID {
			row[width-1] = storage.IntVal(int64(i))
		}
		out[i] = row
	}
	if nKeys == 0 {
		return schema, out, nil
	}

	// Sort a permutation by key with the base position as tie-break: the
	// order a stable sort gives, without its reflection-based swapper.
	order := make([]int32, len(out))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := out[a], out[b]
		for k := 0; k < nKeys; k++ {
			if c := ra[k].Compare(rb[k]); c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	})
	sorted := make([]storage.Row, len(out))
	for i, at := range order {
		sorted[i] = out[at]
	}
	return schema, sorted, nil
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

// Build materializes and measures the index.
func Build(db *catalog.Database, d *Def) (*Physical, error) {
	schema, rows, err := MaterializeRows(db, d)
	if err != nil {
		return nil, err
	}
	return BuildFromRows(schema, rows, d), nil
}

// BuildFromRows measures an index over pre-materialized, pre-sorted leaf
// rows. Used by SampleCF, which builds indexes on samples.
func BuildFromRows(schema *storage.Schema, rows []storage.Row, d *Def) *Physical {
	unc := compress.SizeRows(schema, rows, compress.None)
	bytes := unc
	if d.IsMixed() {
		bytes = compress.SizeRowsDesign(schema, rows, d.Method, d.ColMethods)
	} else if d.Method != compress.None {
		bytes = compress.SizeRows(schema, rows, d.Method)
	}
	return &Physical{
		Def:               d,
		Schema:            schema,
		Rows:              int64(len(rows)),
		UncompressedBytes: unc,
		Bytes:             bytes,
		Pages:             storage.PagesForBytes(bytes),
	}
}
