package index

import (
	"fmt"
	"math"
	"math/big"
	"slices"
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
//
// A grouped view is one streaming pass over the fact rows — Joiner.Widen,
// RowFilter.Keep, GroupAcc.Add — so no wide row is kept: what the view holds
// is its groups. The pass widens every column, not only those the view
// reads: the oracle's grouped queries run through here, so what it computes
// does not rest on the store's column pruning. A join-projection view (no
// GROUP BY, no aggregates) keeps its joined rows.
func MaterializeMVOver(db *catalog.Database, mv *MVDef, factSchema *storage.Schema, factRows []storage.Row) (*storage.Schema, []storage.Row, error) {
	if len(mv.GroupBy) == 0 && len(mv.Aggs) == 0 {
		schema, rows, err := JoinRowsFrom(db, mv.Fact, factSchema, factRows, mv.Joins)
		if err != nil {
			return nil, nil, err
		}
		rows, err = FilterRows(schema, rows, mv.Where)
		return schema, rows, err
	}
	jn, flt, ga, err := compileView(db, mv)
	if err != nil {
		return nil, nil, err
	}
	if factSchema == nil {
		ft := db.Table(mv.Fact)
		factSchema, factRows = ft.Schema, ft.Rows
	}
	if err := jn.Bind(factSchema, nil, nil); err != nil {
		return nil, nil, err
	}
	for _, r := range factRows {
		if wide, ok := jn.Widen(r); ok && flt.Keep(wide) {
			ga.Add(wide)
		}
	}
	schema, rows := ga.Finish()
	return schema, rows, nil
}

// compileView resolves a grouped view's join, filter and grouping against
// the catalog. No row is read.
func compileView(db *catalog.Database, mv *MVDef) (*Joiner, *RowFilter, *GroupAcc, error) {
	jn, err := NewJoiner(db, mv.Fact, mv.Joins)
	if err != nil {
		return nil, nil, nil, err
	}
	flt, err := NewRowFilter(jn.Schema(), mv.Where)
	if err != nil {
		return nil, nil, nil, err
	}
	ga, err := NewGroupAcc(jn.Schema(), mv.GroupBy, mv.Aggs)
	if err != nil {
		return nil, nil, nil, err
	}
	return jn, flt, ga, nil
}

// MVSchema is the schema MaterializeMV returns for a grouped view — its
// group-by columns, aggregates and hidden __count, named as GroupAcc.Schema
// names them — and the tables materializing it reads, lowercased: the fact
// table, then each joined one. No row is read.
func MVSchema(db *catalog.Database, mv *MVDef) (*storage.Schema, []string, error) {
	if len(mv.GroupBy) == 0 && len(mv.Aggs) == 0 {
		return nil, nil, fmt.Errorf("index: view %s neither groups nor aggregates", mv.Name)
	}
	jn, _, ga, err := compileView(db, mv)
	if err != nil {
		return nil, nil, err
	}
	tables := []string{strings.ToLower(jn.fact.Name)}
	for _, st := range jn.steps {
		tables = append(tables, strings.ToLower(st.dim.Name))
	}
	return ga.Schema(), tables, nil
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

// FilterRows returns the rows that satisfy the ANDed predicates, compiled by
// NewRowFilter. It serves a wide joined schema and a base table's schema
// alike: the oracle's post-join filter, a partial index's build and its
// filtered sample all go through it.
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

// RowFilter is a WHERE clause compiled against one schema: each predicate's
// column bound by ResolveCol and its bounds coerced to the column kind once
// (workload.Predicate.Lower), then rows tested one at a time by
// storage.MatchesRow. It is how every row outside a page decode meets a
// predicate: reads after the join, and the rows an UPDATE or DELETE
// rewrites.
type RowFilter struct {
	preds []storage.ColPredicate
}

// NewRowFilter compiles the predicates against the schema, failing on an
// unknown or ambiguous column.
func NewRowFilter(s *storage.Schema, preds []workload.Predicate) (*RowFilter, error) {
	f := &RowFilter{preds: make([]storage.ColPredicate, 0, len(preds))}
	for _, p := range preds {
		idx, err := ResolveCol(s, workload.ColRef{Table: p.Table, Col: p.Col})
		if err != nil {
			return nil, err
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
func (f *RowFilter) Keep(r storage.Row) bool { return storage.MatchesRow(f.preds, r) }

// ResolveCol binds a column reference to its ordinal in a schema — a wide
// joined one (table_col names, see Joiner) or a table's or an MV's own. The
// rule, the one every predicate, select item, group-by, aggregate and ORDER
// BY key is bound by: table_col when the reference is qualified, then the
// bare name, then the one column whose name ends in _col. A name no rule
// finds, or that ends more than one column, is an error.
func ResolveCol(s *storage.Schema, c workload.ColRef) (int, error) {
	if c.Table != "" {
		if i := s.ColIndex(c.Table + "_" + c.Col); i >= 0 {
			return i, nil
		}
	}
	if i := s.ColIndex(c.Col); i >= 0 {
		return i, nil
	}
	suffix := "_" + strings.ToLower(c.Col)
	found := -1
	for i, col := range s.Columns {
		if strings.HasSuffix(strings.ToLower(col.Name), suffix) {
			if found >= 0 {
				return -1, fmt.Errorf("index: ambiguous column %q", c)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("index: column %q not found", c)
	}
	return found, nil
}

// GroupAcc is the grouping/aggregation accumulator, fed one wide row at a
// time. Each group it finishes is the same in any row order — SUM/AVG are
// exact until rounded once, MIN/MAX ties fall to storage.Value.CompareTotal,
// a float key is its bits (-0 as +0) — so the oracle and the store agree
// byte for byte whatever order their access paths deliver. Groups come out
// in first-appearance order; shaping sorts it away.
type GroupAcc struct {
	s       *storage.Schema
	groupBy []workload.ColRef
	aggs    []workload.Aggregate
	gIdx    []int
	aIdx    []int
	groups  map[string]*groupState
	order   []*groupState
	kb      []byte
	tmp     big.Int // exactSum scratch
}

type groupState struct {
	key   storage.Row
	sums  []exactSum      // SUM/AVG totals
	best  []storage.Value // MIN/MAX so far
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
		groups:  make(map[string]*groupState),
	}
	var err error
	for i, g := range groupBy {
		if ga.gIdx[i], err = ResolveCol(s, g); err != nil {
			return nil, err
		}
	}
	for i, a := range aggs {
		if a.Col.Col == "" { // COUNT(*)
			ga.aIdx[i] = -1
			continue
		}
		if ga.aIdx[i], err = ResolveCol(s, a.Col); err != nil {
			return nil, err
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
			sums:  make([]exactSum, len(ga.aggs)),
			best:  make([]storage.Value, len(ga.aggs)),
			nvals: make([]int64, len(ga.aggs)),
		}
		for i, gi := range ga.gIdx {
			a.key[i] = r[gi]
			if a.key[i].Kind == storage.KindFloat && a.key[i].Float == 0 {
				a.key[i].Float = 0 // -0 joins +0's group, under +0
			}
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
		switch f := ga.aggs[i].Func; f {
		case workload.AggSum, workload.AggAvg:
			if v.Kind == storage.KindFloat {
				a.sums[i].addFloat(v.Float, &ga.tmp)
			} else {
				a.sums[i].addInt(v.Int)
			}
		case workload.AggMin, workload.AggMax:
			if c := v.CompareTotal(a.best[i]); a.nvals[i] == 0 || c < 0 && f == workload.AggMin || c > 0 && f == workload.AggMax {
				a.best[i] = v
			}
		}
		a.nvals[i]++
	}
}

// Schema is the layout of Finish's rows, named by GroupedColumns: the
// group-by columns with their wide columns' kinds, the aggregate columns,
// and the hidden __count column.
func (ga *GroupAcc) Schema() *storage.Schema {
	names := GroupedColumns(ga.groupBy, ga.aggs)
	cols := make([]storage.Column, len(names))
	for i, gi := range ga.gIdx {
		cols[i] = ga.s.Columns[gi]
	}
	for i, a := range ga.aggs {
		kind := storage.KindFloat
		if (a.Func == workload.AggMin || a.Func == workload.AggMax) && ga.aIdx[i] >= 0 {
			kind = ga.s.Columns[ga.aIdx[i]].Kind
		}
		if a.Func == workload.AggCount {
			kind = storage.KindInt
		}
		cols[len(ga.gIdx)+i] = storage.Column{Kind: kind}
	}
	cols[len(cols)-1] = storage.Column{Kind: storage.KindInt}
	for i := range cols {
		cols[i].Name = names[i]
	}
	return storage.NewSchema(cols...)
}

// GroupedColumns names the columns of a grouped result or view, in order:
// each group-by column as QualifiedCol, each aggregate as func_table_col
// (count_star for COUNT(*)) with a _2, _3, ... suffix on a repeat, and the
// hidden __count. A view's index (core.MVIndexDef) keys and includes these
// names, and the store reads a view by them.
func GroupedColumns(groupBy []workload.ColRef, aggs []workload.Aggregate) []string {
	names := make([]string, 0, len(groupBy)+len(aggs)+1)
	for _, g := range groupBy {
		names = append(names, QualifiedCol(g))
	}
	for _, a := range aggs {
		name := "count_star"
		if a.Col.Col != "" {
			name = strings.ToLower(a.Func.String()) + "_" + QualifiedCol(a.Col)
		}
		names = append(names, uniqueName(names, name))
	}
	return append(names, "__count")
}

// Finish materializes the grouped output, one row per group in Schema's
// layout. An aggregate over no non-NULL input — SUM, AVG, MIN, MAX — is
// NULL; COUNT is 0.
func (ga *GroupAcc) Finish() (*storage.Schema, []storage.Row) {
	outSchema := ga.Schema()
	out := make([]storage.Row, 0, len(ga.order))
	for _, a := range ga.order {
		row := make(storage.Row, 0, len(outSchema.Columns))
		row = append(row, a.key...)
		for i, ag := range ga.aggs {
			switch ag.Func {
			case workload.AggSum:
				if a.nvals[i] == 0 {
					row = append(row, storage.NullValue(storage.KindFloat))
				} else {
					row = append(row, storage.FloatVal(a.sums[i].value()))
				}
			case workload.AggAvg:
				if a.nvals[i] == 0 {
					row = append(row, storage.NullValue(storage.KindFloat))
				} else {
					row = append(row, storage.FloatVal(a.sums[i].value()/float64(a.nvals[i])))
				}
			case workload.AggCount:
				n := a.count
				if ga.aIdx[i] >= 0 {
					n = a.nvals[i]
				}
				row = append(row, storage.IntVal(n))
			case workload.AggMin, workload.AggMax:
				row = append(row, orNull(a.best[i], a.nvals[i]))
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

func uniqueName(names []string, name string) string {
	exists := func(n string) bool {
		return slices.ContainsFunc(names, func(x string) bool { return strings.EqualFold(x, n) })
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
		u := math.Float64bits(v.Float)
		if v.Float == 0 {
			u = 0 // -0 and +0 are one group
		}
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
