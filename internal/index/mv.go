package index

import (
	"fmt"
	"strings"

	"cadb/internal/catalog"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// MaterializeMV executes the view definition over the database: hash-join the
// fact table with each dimension (key/foreign-key joins, so at most one match
// per fact row), apply the WHERE clause, then group and aggregate. The result
// always includes a trailing hidden "__count" column when grouped.
//
// The returned schema qualifies column names as table_col to keep them unique
// across joined tables.
func MaterializeMV(db *catalog.Database, mv *MVDef) (*storage.Schema, []storage.Row, error) {
	return MaterializeMVOver(db, mv, nil, nil)
}

// MaterializeMVOver is MaterializeMV with an optional fact-table row
// override; the sampling subsystem passes a fact sample here to build MV
// samples over join synopses (Appendix B).
func MaterializeMVOver(db *catalog.Database, mv *MVDef, factSchema *storage.Schema, factRows []storage.Row) (*storage.Schema, []storage.Row, error) {
	schema, rows, err := JoinRowsFrom(db, mv.Fact, factSchema, factRows, mv.Joins)
	if err != nil {
		return nil, nil, err
	}
	rows, err = FilterRows(schema, rows, mv.Where)
	if err != nil {
		return nil, nil, err
	}
	if len(mv.GroupBy) == 0 && len(mv.Aggs) == 0 {
		// A join-projection view: project the referenced columns.
		return schema, rows, nil
	}
	return groupRows(schema, rows, mv.GroupBy, mv.Aggs)
}

// QualifiedCol renders the canonical joined-row column name for a reference.
func QualifiedCol(c workload.ColRef) string {
	if c.Table == "" {
		return strings.ToLower(c.Col)
	}
	return strings.ToLower(c.Table + "_" + c.Col)
}

// JoinRows joins the fact table with each joined dimension table, producing a
// wide row set whose schema has columns named table_col. Fact rows with no
// dimension match (possible when sampling the fact table) are dropped, which
// matches inner-join semantics.
func JoinRows(db *catalog.Database, fact string, joins []workload.Join) (*storage.Schema, []storage.Row, error) {
	return JoinRowsFrom(db, fact, nil, nil, joins)
}

// JoinRowsFrom is JoinRows but with an optional row override for the fact
// table (factSchema/factRows non-nil, in the table's own schema) — used by
// the sampling subsystem to join a fact-table sample against the full
// dimension tables (join synopses, Appendix B.2).
func JoinRowsFrom(db *catalog.Database, fact string, factSchema *storage.Schema, factRows []storage.Row, joins []workload.Join) (*storage.Schema, []storage.Row, error) {
	jn, err := NewJoiner(db, fact, joins)
	if err != nil {
		return nil, nil, err
	}
	if factSchema == nil {
		ft := db.Table(fact)
		factSchema, factRows = ft.Schema, ft.Rows
	}
	if len(joins) == 0 {
		// Nothing to widen: the fact rows are the wide rows.
		return jn.Schema(), factRows, nil
	}
	if err := jn.Bind(factSchema, nil, nil); err != nil {
		return nil, nil, err
	}
	out := make([]storage.Row, 0, len(factRows))
	for _, r := range factRows {
		if wide, ok := jn.Widen(r); ok {
			out = append(out, wide.Clone())
		}
	}
	return jn.Schema(), out, nil
}

// TableFetch overrides where a dimension's rows come from during joins: it
// returns the named columns of every row of the table (with their schema), as
// rows the joiner may keep. The segment-backed executor supplies a fetch that
// decodes pages (and counts the reads).
type TableFetch func(table string, cols []string) (*storage.Schema, []storage.Row, error)

// Joiner is the streaming hash join of a fact table with its dimensions. Both
// the plain-row oracle and the segment-backed executor run their rows through
// this same probe code, so join behavior (and the resulting float-sum order
// downstream) cannot diverge between them.
//
// It works in two steps so that a pipeline can prune what it reads without
// changing what it accepts. NewJoiner resolves the join chain against the
// catalog alone and fixes the wide schema: every column of the fact table and
// of each dimension, named table_col. Column references resolve — and are
// rejected as unknown or ambiguous — against that full schema whatever is
// read later. Bind then builds the hash tables from only the columns the
// statement uses, and Widen fills only those positions of the wide row.
type Joiner struct {
	fact   *catalog.Table // its columns lead the wide schema, in table order
	schema *storage.Schema
	factAt []int // Widen's input column i lands at wide[factAt[i]]
	steps  []joinStep
	wide   storage.Row // Widen's output, overwritten by the next call
}

type joinStep struct {
	dim      *catalog.Table
	keyIdx   int          // the dimension's join key, as an ordinal of its table schema
	keyKind  storage.Kind // that column's kind
	base     int          // the dimension's first column in the wide schema
	probeIdx int          // the wide column probed into the hash

	// Built by Bind. Integer and date keys hash as int64; any other kind
	// through the generic ValueKey.
	ints map[int64]storage.Row
	keys map[storage.ValueKey]storage.Row
	at   []int // dimension row column i lands at wide[at[i]]
}

// NewJoiner resolves the join chain against the catalog. No row is read.
func NewJoiner(db *catalog.Database, fact string, joins []workload.Join) (*Joiner, error) {
	ft := db.Table(fact)
	if ft == nil {
		return nil, fmt.Errorf("index: unknown fact table %q", fact)
	}
	// Start with the fact table, columns renamed to fact_col.
	curCols := qualifyColumns(fact, ft.Schema.Columns)
	jn := &Joiner{fact: ft}
	for _, j := range joins {
		dimName, dimCol, factCol := j.RightTable, j.RightCol, j.LeftCol
		if !strings.EqualFold(j.LeftTable, fact) {
			// Allow the join to be written either direction.
			if strings.EqualFold(j.RightTable, fact) {
				dimName, dimCol, factCol = j.LeftTable, j.LeftCol, j.RightCol
			} else {
				// Snowflake joins hang off a previously joined dimension:
				// treat the already-joined side as the "fact" side.
				dimName, dimCol, factCol = j.RightTable, j.RightCol, j.LeftTable+"_"+j.LeftCol
			}
		}
		dim := db.Table(dimName)
		if dim == nil {
			return nil, fmt.Errorf("index: unknown dimension table %q", dimName)
		}
		keyIdx := dim.Schema.ColIndex(dimCol)
		if keyIdx < 0 {
			return nil, fmt.Errorf("index: %s has no column %q", dimName, dimCol)
		}
		// Probe side column index in the current wide row.
		probeIdx := indexOfQualified(curCols, fact, factCol)
		if probeIdx < 0 {
			return nil, fmt.Errorf("index: join column %q not found in joined row", factCol)
		}
		jn.steps = append(jn.steps, joinStep{
			dim: dim, keyIdx: keyIdx, keyKind: dim.Schema.Columns[keyIdx].Kind, base: len(curCols), probeIdx: probeIdx,
		})
		curCols = append(curCols, qualifyColumns(dimName, dim.Schema.Columns)...)
	}
	jn.schema = storage.NewSchema(curCols...)
	return jn, nil
}

// Schema returns the wide table_col-named schema: every column of every
// joined table, whatever subset Bind goes on to read.
func (jn *Joiner) Schema() *storage.Schema { return jn.schema }

// JoinCols starts a used-column set over the wide schema with what the join
// itself reads: each step's probe column and dimension key.
func (jn *Joiner) JoinCols() []bool {
	used := make([]bool, len(jn.schema.Columns))
	for _, st := range jn.steps {
		used[st.probeIdx] = true
		used[st.base+st.keyIdx] = true
	}
	return used
}

// FactCols names the fact table's columns in the used set, in table order.
func (jn *Joiner) FactCols(used []bool) []string {
	var cols []string
	for i, c := range jn.fact.Schema.Columns {
		if used[i] {
			cols = append(cols, c.Name)
		}
	}
	return cols
}

// Bind fixes the shape of the rows Widen will be fed — factSchema names their
// columns, any subset of the fact table's in any order — and hashes each
// dimension on its key. used marks the wide columns the statement can
// observe (nil: all of them); only those are read from a dimension, through
// fetch when given, and only those are filled in by Widen.
func (jn *Joiner) Bind(factSchema *storage.Schema, used []bool, fetch TableFetch) error {
	jn.factAt = make([]int, len(factSchema.Columns))
	for i, c := range factSchema.Columns {
		// The fact table's columns lead the wide schema in table order.
		at := jn.fact.Schema.ColIndex(c.Name)
		if at < 0 {
			return fmt.Errorf("index: %s has no column %q", jn.fact.Name, c.Name)
		}
		jn.factAt[i] = at
	}
	for si := range jn.steps {
		st := &jn.steps[si]
		schema, rows := st.dim.Schema, st.dim.Rows
		if fetch != nil {
			var cols []string
			for i, c := range schema.Columns {
				if used == nil || used[st.base+i] {
					cols = append(cols, c.Name)
				}
			}
			var err error
			schema, rows, err = fetch(st.dim.Name, cols)
			if err != nil {
				return err
			}
		}
		st.at = make([]int, len(schema.Columns))
		for i, c := range schema.Columns {
			st.at[i] = st.base + st.dim.Schema.ColIndex(c.Name)
		}
		st.hash(rows, schema.ColIndex(st.dim.Schema.Columns[st.keyIdx].Name))
	}
	jn.wide = make(storage.Row, len(jn.schema.Columns))
	return nil
}

// hash indexes the dimension rows on their key column; the last row wins a
// duplicate key. A key column of integer or date kind hashes as int64 — as
// long as every key is a non-NULL value of that kind, which a stored column
// guarantees; otherwise the generic map takes over.
func (st *joinStep) hash(rows []storage.Row, key int) {
	if st.keyKind == storage.KindInt || st.keyKind == storage.KindDate {
		st.ints = make(map[int64]storage.Row, len(rows))
		for _, r := range rows {
			if v := r[key]; v.Null || v.Kind != st.keyKind {
				st.ints = nil
				break
			}
			st.ints[r[key].Int] = r
		}
		if st.ints != nil {
			return
		}
	}
	st.keys = make(map[storage.ValueKey]storage.Row, len(rows))
	for _, r := range rows {
		st.keys[r[key].Key()] = r
	}
}

// Widen widens one fact row through every join step into the joiner's own
// wide row, which the next call overwrites: a caller keeping it copies it.
// ok=false means the row found no dimension match and is dropped (inner-join
// semantics).
func (jn *Joiner) Widen(r storage.Row) (wide storage.Row, ok bool) {
	wide = jn.wide
	for i, at := range jn.factAt {
		wide[at] = r[i]
	}
	for si := range jn.steps {
		st := &jn.steps[si]
		v := wide[st.probeIdx]
		var m storage.Row
		if st.ints != nil {
			// A probe of another kind (or NULL) equals no key of this kind.
			if ok = !v.Null && v.Kind == st.keyKind; ok {
				m, ok = st.ints[v.Int]
			}
		} else {
			m, ok = st.keys[v.Key()]
		}
		if !ok {
			return nil, false
		}
		for i, at := range st.at {
			wide[at] = m[i]
		}
	}
	return wide, true
}

func qualifyColumns(table string, cols []storage.Column) []storage.Column {
	out := make([]storage.Column, len(cols))
	for i, c := range cols {
		c.Name = strings.ToLower(table + "_" + c.Name)
		out[i] = c
	}
	return out
}

// indexOfQualified finds a column that is either already qualified
// (tbl_col form) or belongs to the named table.
func indexOfQualified(cols []storage.Column, table, col string) int {
	want1 := strings.ToLower(table + "_" + col)
	want2 := strings.ToLower(col)
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if lc == want1 || lc == want2 {
			return i
		}
	}
	return -1
}

// FilterRows applies the ANDed predicates; predicate columns may be written
// unqualified (col) or qualified (table.col), both resolved against the wide
// schema's table_col naming.
func FilterRows(s *storage.Schema, rows []storage.Row, preds []workload.Predicate) ([]storage.Row, error) {
	f, err := NewRowFilter(s, preds)
	if err != nil {
		return nil, err
	}
	if f.Empty() {
		return rows, nil
	}
	out := make([]storage.Row, 0, len(rows))
	for _, r := range rows {
		if f.Keep(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// RowFilter is the streaming form of FilterRows: predicate columns resolve
// against the schema and bounds coerce to the column kind once, then rows are
// tested one at a time.
type RowFilter struct {
	preds []storage.ColPredicate
}

// NewRowFilter resolves every predicate column against the schema, failing
// on unknown columns exactly as FilterRows does.
func NewRowFilter(s *storage.Schema, preds []workload.Predicate) (*RowFilter, error) {
	f := &RowFilter{preds: make([]storage.ColPredicate, 0, len(preds))}
	for _, p := range preds {
		idx := resolveCol(s, p.Table, p.Col)
		if idx < 0 {
			return nil, fmt.Errorf("index: predicate column %q not found", p.Col)
		}
		f.preds = append(f.preds, p.Lower(idx, s.Columns[idx].Kind))
	}
	return f, nil
}

// Empty reports whether the filter has no predicates (every row passes).
func (f *RowFilter) Empty() bool { return len(f.preds) == 0 }

// MarkCols adds the columns the filter reads to a used-column set.
func (f *RowFilter) MarkCols(used []bool) {
	for _, p := range f.preds {
		used[p.Col] = true
	}
}

// Keep reports whether the row satisfies every predicate (NULLs never do).
func (f *RowFilter) Keep(r storage.Row) bool {
	for i := range f.preds {
		if p := &f.preds[i]; !p.Matches(r[p.Col]) {
			return false
		}
	}
	return true
}

// resolveCol finds a column in a (possibly qualified) wide schema.
func resolveCol(s *storage.Schema, table, col string) int {
	if table != "" {
		if i := s.ColIndex(table + "_" + col); i >= 0 {
			return i
		}
	}
	if i := s.ColIndex(col); i >= 0 {
		return i
	}
	// Unqualified name that exists under exactly one table qualifier.
	suffix := "_" + strings.ToLower(col)
	found := -1
	for i, c := range s.Columns {
		if strings.HasSuffix(strings.ToLower(c.Name), suffix) {
			if found >= 0 {
				return -1 // ambiguous
			}
			found = i
		}
	}
	return found
}

// groupRows groups by the given columns and computes the aggregates plus the
// hidden __count column.
func groupRows(s *storage.Schema, rows []storage.Row, groupBy []workload.ColRef, aggs []workload.Aggregate) (*storage.Schema, []storage.Row, error) {
	ga, err := NewGroupAcc(s, groupBy, aggs)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range rows {
		ga.Add(r)
	}
	schema, out := ga.Finish()
	return schema, out, nil
}

// GroupAcc is the streaming form of groupRows: a grouping/aggregation
// accumulator fed one wide row at a time. Because the oracle and the
// segment-backed executor accumulate through this same code, feeding rows
// in the same order yields bit-identical float sums — the property the
// byte-identity differential tests pin down. Groups are emitted in first-
// appearance order.
type GroupAcc struct {
	s       *storage.Schema
	groupBy []workload.ColRef
	aggs    []workload.Aggregate
	gIdx    []int
	aIdx    []int
	groups  map[string]*groupState
	order   []*groupState
	kb      []byte
}

type groupState struct {
	key   storage.Row
	sums  []float64
	mins  []storage.Value
	maxs  []storage.Value
	nvals []int64
	count int64
}

// NewGroupAcc resolves the group-by and aggregate columns against the wide
// schema.
func NewGroupAcc(s *storage.Schema, groupBy []workload.ColRef, aggs []workload.Aggregate) (*GroupAcc, error) {
	ga := &GroupAcc{
		s:       s,
		groupBy: groupBy,
		aggs:    aggs,
		gIdx:    make([]int, len(groupBy)),
		aIdx:    make([]int, len(aggs)),
		groups:  make(map[string]*groupState, 1024),
		order:   make([]*groupState, 0, 1024),
	}
	for i, g := range groupBy {
		ga.gIdx[i] = resolveCol(s, g.Table, g.Col)
		if ga.gIdx[i] < 0 {
			return nil, fmt.Errorf("index: group-by column %q not found", g.String())
		}
	}
	for i, a := range aggs {
		if a.Col.Col == "" { // COUNT(*)
			ga.aIdx[i] = -1
			continue
		}
		ga.aIdx[i] = resolveCol(s, a.Col.Table, a.Col.Col)
		if ga.aIdx[i] < 0 {
			return nil, fmt.Errorf("index: aggregate column %q not found", a.Col.String())
		}
	}
	return ga, nil
}

// MarkCols adds the columns the accumulator reads to a used-column set.
func (ga *GroupAcc) MarkCols(used []bool) {
	for _, i := range ga.gIdx {
		used[i] = true
	}
	for _, i := range ga.aIdx {
		if i >= 0 {
			used[i] = true
		}
	}
}

// Add folds one row into its group. It keeps no reference to the row.
func (ga *GroupAcc) Add(r storage.Row) {
	ga.kb = ga.kb[:0]
	for _, gi := range ga.gIdx {
		ga.kb = appendGroupKey(ga.kb, r[gi])
	}
	a, ok := ga.groups[string(ga.kb)]
	if !ok {
		a = &groupState{
			key:   make(storage.Row, len(ga.gIdx)),
			sums:  make([]float64, len(ga.aggs)),
			mins:  make([]storage.Value, len(ga.aggs)),
			maxs:  make([]storage.Value, len(ga.aggs)),
			nvals: make([]int64, len(ga.aggs)),
		}
		for i, gi := range ga.gIdx {
			a.key[i] = r[gi]
		}
		ga.groups[string(ga.kb)] = a
		ga.order = append(ga.order, a)
	}
	a.count++
	for i := range ga.aggs {
		if ga.aIdx[i] < 0 {
			continue
		}
		v := r[ga.aIdx[i]]
		if v.Null {
			continue
		}
		f := numeric(v)
		a.sums[i] += f
		if a.nvals[i] == 0 || v.Compare(a.mins[i]) < 0 {
			a.mins[i] = v
		}
		if a.nvals[i] == 0 || v.Compare(a.maxs[i]) > 0 {
			a.maxs[i] = v
		}
		a.nvals[i]++
	}
}

// Finish materializes the grouped output: group-by columns (renamed to
// their canonical qualified form), aggregate columns, and the hidden
// __count column.
func (ga *GroupAcc) Finish() (*storage.Schema, []storage.Row) {
	var cols []storage.Column
	for i, gi := range ga.gIdx {
		c := ga.s.Columns[gi]
		c.Name = QualifiedCol(ga.groupBy[i])
		cols = append(cols, c)
	}
	for i, a := range ga.aggs {
		name := fmt.Sprintf("%s_%s", strings.ToLower(a.Func.String()), QualifiedCol(a.Col))
		if a.Col.Col == "" {
			name = "count_star"
		}
		kind := storage.KindFloat
		if (a.Func == workload.AggMin || a.Func == workload.AggMax) && ga.aIdx[i] >= 0 {
			kind = ga.s.Columns[ga.aIdx[i]].Kind
		}
		if a.Func == workload.AggCount {
			kind = storage.KindInt
		}
		cols = append(cols, storage.Column{Name: uniqueName(cols, name), Kind: kind})
	}
	cols = append(cols, storage.Column{Name: "__count", Kind: storage.KindInt})
	outSchema := storage.NewSchema(cols...)

	out := make([]storage.Row, 0, len(ga.order))
	for _, a := range ga.order {
		row := make(storage.Row, 0, len(cols))
		row = append(row, a.key...)
		for i, ag := range ga.aggs {
			switch ag.Func {
			case workload.AggSum:
				row = append(row, storage.FloatVal(a.sums[i]))
			case workload.AggAvg:
				if a.nvals[i] == 0 {
					row = append(row, storage.NullValue(storage.KindFloat))
				} else {
					row = append(row, storage.FloatVal(a.sums[i]/float64(a.nvals[i])))
				}
			case workload.AggCount:
				n := a.count
				if ga.aIdx[i] >= 0 {
					n = a.nvals[i]
				}
				row = append(row, storage.IntVal(n))
			case workload.AggMin:
				row = append(row, orNull(a.mins[i], a.nvals[i]))
			case workload.AggMax:
				row = append(row, orNull(a.maxs[i], a.nvals[i]))
			}
		}
		row = append(row, storage.IntVal(a.count))
		out = append(out, row)
	}
	return outSchema, out
}

func orNull(v storage.Value, n int64) storage.Value {
	if n == 0 {
		return storage.NullValue(v.Kind)
	}
	return v
}

func uniqueName(cols []storage.Column, name string) string {
	exists := func(n string) bool {
		for _, c := range cols {
			if strings.EqualFold(c.Name, n) {
				return true
			}
		}
		return false
	}
	if !exists(name) {
		return name
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s_%d", name, i)
		if !exists(cand) {
			return cand
		}
	}
}

func numeric(v storage.Value) float64 {
	switch v.Kind {
	case storage.KindFloat:
		return v.Float
	default:
		return float64(v.Int)
	}
}

func appendGroupKey(dst []byte, v storage.Value) []byte {
	if v.Null {
		return append(dst, 0xFF)
	}
	switch v.Kind {
	case storage.KindString:
		dst = append(dst, 1)
		dst = append(dst, v.Str...)
		return append(dst, 0)
	case storage.KindFloat:
		dst = append(dst, 2)
		u := uint64(int64(v.Float * 1e6))
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(u>>uint(s)))
		}
		return dst
	default:
		dst = append(dst, 3)
		u := uint64(v.Int)
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(u>>uint(s)))
		}
		return dst
	}
}
