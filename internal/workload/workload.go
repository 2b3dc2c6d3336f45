// Package workload defines the statement intermediate representation the
// advisor tunes for: single-table and foreign-key-join SELECT queries with
// range/equality predicates, grouping and aggregation, plus write statements
// — bulk-load INSERTs and predicated UPDATE/DELETE statements. A Workload is
// a weighted set of statements, mirroring the paper's setup (TPC-H: 22
// analytic queries + 2 bulk loads; Sales: 50 + 2) where write-statement
// weights are varied to produce SELECT-intensive, INSERT-intensive and
// update-intensive mixes.
package workload

import (
	"fmt"
	"sort"
	"strings"

	"cadb/internal/storage"
)

// CmpOp enumerates predicate comparison operators.
type CmpOp uint8

const (
	// OpEq is equality (col = const).
	OpEq CmpOp = iota
	// OpLt is col < const.
	OpLt
	// OpLe is col <= const.
	OpLe
	// OpGt is col > const.
	OpGt
	// OpGe is col >= const.
	OpGe
	// OpBetween is lo <= col <= hi.
	OpBetween
	// OpNe is col <> const (not sargable for seeks).
	OpNe
)

// String renders the operator in SQL syntax.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpNe:
		return "<>"
	}
	return "?"
}

// Predicate is a simple comparison between a column and constants. All
// predicates in a query are implicitly ANDed.
type Predicate struct {
	Table string // optional qualifier; resolved against the query's tables
	Col   string
	Op    CmpOp
	Lo    storage.Value // the constant; for BETWEEN, the lower bound
	Hi    storage.Value // upper bound, BETWEEN only
}

// Matches evaluates the predicate against a row of the given schema. The
// column must exist in the schema.
func (p Predicate) Matches(s *storage.Schema, r storage.Row) bool {
	i := s.ColIndex(p.Col)
	if i < 0 {
		return false
	}
	v := r[i]
	if v.Null {
		return false // SQL three-valued logic: NULL never satisfies
	}
	lo := p.Lo.CoerceTo(v.Kind)
	switch p.Op {
	case OpEq:
		return v.Compare(lo) == 0
	case OpNe:
		return v.Compare(lo) != 0
	case OpLt:
		return v.Compare(lo) < 0
	case OpLe:
		return v.Compare(lo) <= 0
	case OpGt:
		return v.Compare(lo) > 0
	case OpGe:
		return v.Compare(lo) >= 0
	case OpBetween:
		return v.Compare(lo) >= 0 && v.Compare(p.Hi.CoerceTo(v.Kind)) <= 0
	}
	return false
}

// predOps maps each CmpOp onto the storage-level operator.
var predOps = [...]storage.PredOp{
	OpEq: storage.PredEq, OpLt: storage.PredLt, OpLe: storage.PredLe, OpGt: storage.PredGt,
	OpGe: storage.PredGe, OpBetween: storage.PredBetween, OpNe: storage.PredNe,
}

// Lower compiles the predicate against the column it resolved to: ordinal col
// of the given kind, bounds coerced to that kind once. Matches coerces per
// row to the stored value's kind, but a stored value always has its column's
// kind, so the lowered predicate accepts exactly the same values. An operator
// outside the enumeration lowers to one no value satisfies.
func (p Predicate) Lower(col int, kind storage.Kind) storage.ColPredicate {
	cp := storage.ColPredicate{Col: col, Op: storage.PredOp(len(predOps)), Lo: p.Lo.CoerceTo(kind)}
	if int(p.Op) < len(predOps) {
		cp.Op = predOps[p.Op]
	}
	if p.Op == OpBetween {
		cp.Hi = p.Hi.CoerceTo(kind)
	}
	return cp
}

// Sargable reports whether the predicate can drive an index seek: equality
// and ranges can, <> cannot.
func (p Predicate) Sargable() bool { return p.Op != OpNe }

// IsEquality reports whether the predicate pins the column to one value.
func (p Predicate) IsEquality() bool { return p.Op == OpEq }

// String renders the predicate in SQL syntax.
func (p Predicate) String() string {
	col := p.Col
	if p.Table != "" {
		col = p.Table + "." + p.Col
	}
	if p.Op == OpBetween {
		return fmt.Sprintf("%s BETWEEN %s AND %s", col, p.Lo, p.Hi)
	}
	return fmt.Sprintf("%s %s %s", col, p.Op, p.Lo)
}

// ColRef names a column, optionally qualified by table.
type ColRef struct {
	Table string
	Col   string
}

// String renders the reference.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Col
	}
	return c.Table + "." + c.Col
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	// AggSum is SUM(col).
	AggSum AggFunc = iota
	// AggCount is COUNT(*) (Col empty) or COUNT(col).
	AggCount
	// AggAvg is AVG(col).
	AggAvg
	// AggMin is MIN(col).
	AggMin
	// AggMax is MAX(col).
	AggMax
)

// String renders the function name.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return "?"
}

// Aggregate is one aggregate expression in the select list.
type Aggregate struct {
	Func AggFunc
	Col  ColRef // zero value means COUNT(*)
}

// String renders the aggregate.
func (a Aggregate) String() string {
	if a.Col.Col == "" {
		return a.Func.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Col)
}

// Join is an equi-join between two tables (in this system always a key /
// foreign-key join, fact side first).
type Join struct {
	LeftTable  string
	LeftCol    string
	RightTable string
	RightCol   string
}

// String renders the join condition.
func (j Join) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftCol, j.RightTable, j.RightCol)
}

// Query is a SELECT statement in the supported subset.
type Query struct {
	Tables  []string // first table is the driving (fact) table
	Joins   []Join
	Preds   []Predicate
	Select  []ColRef // plain projected columns
	Aggs    []Aggregate
	GroupBy []ColRef
	OrderBy []ColRef
}

// SingleTable reports the table name if the query touches exactly one table.
func (q *Query) SingleTable() (string, bool) {
	if len(q.Tables) == 1 {
		return q.Tables[0], true
	}
	return "", false
}

// PredsOn returns the predicates that resolve to the given table. Unqualified
// predicates resolve to a table that has the column; the resolver argument
// maps (table, column) to existence.
func (q *Query) PredsOn(table string, has func(table, col string) bool) []Predicate {
	var out []Predicate
	for _, p := range q.Preds {
		if p.Table != "" {
			if strings.EqualFold(p.Table, table) {
				out = append(out, p)
			}
			continue
		}
		if has(table, p.Col) {
			out = append(out, p)
		}
	}
	return out
}

// ColumnsOn returns every column of the given table that the query touches
// (predicates, projections, aggregates, group by, order by, join keys),
// de-duplicated and sorted. The resolver behaves as in PredsOn.
func (q *Query) ColumnsOn(table string, has func(table, col string) bool) []string {
	return q.columnsOn(table, has, true)
}

// NonPredColumnsOn is ColumnsOn excluding columns used only by WHERE
// predicates. The optimizer uses it to decide covering for partial indexes
// whose filter subsumes a predicate: such a predicate's column need not be
// stored in the index.
func (q *Query) NonPredColumnsOn(table string, has func(table, col string) bool) []string {
	return q.columnsOn(table, has, false)
}

func (q *Query) columnsOn(table string, has func(table, col string) bool, includePreds bool) []string {
	seen := map[string]bool{}
	add := func(tbl, col string) {
		if col == "" {
			return
		}
		if tbl != "" {
			if strings.EqualFold(tbl, table) {
				seen[strings.ToLower(col)] = true
			}
			return
		}
		if has(table, col) {
			seen[strings.ToLower(col)] = true
		}
	}
	if includePreds {
		for _, p := range q.Preds {
			add(p.Table, p.Col)
		}
	}
	for _, c := range q.Select {
		add(c.Table, c.Col)
	}
	for _, a := range q.Aggs {
		add(a.Col.Table, a.Col.Col)
	}
	for _, c := range q.GroupBy {
		add(c.Table, c.Col)
	}
	for _, c := range q.OrderBy {
		add(c.Table, c.Col)
	}
	for _, j := range q.Joins {
		if strings.EqualFold(j.LeftTable, table) {
			seen[strings.ToLower(j.LeftCol)] = true
		}
		if strings.EqualFold(j.RightTable, table) {
			seen[strings.ToLower(j.RightCol)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// String renders the query as SQL.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	first := true
	for _, c := range q.Select {
		if !first {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
		first = false
	}
	for _, a := range q.Aggs {
		if !first {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
		first = false
	}
	if first {
		b.WriteString("*")
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	for _, j := range q.Joins {
		b.WriteString(" JOIN ON ")
		b.WriteString(j.String())
	}
	if len(q.Preds) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Preds {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, c := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	return b.String()
}

// Insert is a bulk-load statement appending Rows rows to Table.
type Insert struct {
	Table string
	Rows  int64
}

// String renders the insert.
func (i *Insert) String() string {
	return fmt.Sprintf("INSERT INTO %s BULK %d", i.Table, i.Rows)
}

// Assignment is one SET clause of an UPDATE: Col = Value.
type Assignment struct {
	Col   string
	Value storage.Value
}

// String renders the assignment.
func (a Assignment) String() string {
	return fmt.Sprintf("%s = %s", a.Col, a.Value)
}

// Update is a predicated UPDATE statement: rewrite the Set columns of every
// row of Table matching the (implicitly ANDed) predicates.
type Update struct {
	Table string
	Set   []Assignment
	Preds []Predicate
}

// SetCols returns the updated column names, de-duplicated, in SET order.
func (u *Update) SetCols() []string {
	var out []string
	for _, a := range u.Set {
		dup := false
		for _, c := range out {
			if strings.EqualFold(c, a.Col) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a.Col)
		}
	}
	return out
}

// Touches reports whether the update rewrites the named column.
func (u *Update) Touches(col string) bool {
	for _, a := range u.Set {
		if strings.EqualFold(a.Col, col) {
			return true
		}
	}
	return false
}

// String renders the update as SQL.
func (u *Update) String() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(u.Table)
	b.WriteString(" SET ")
	for i, a := range u.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	writeWhere(&b, u.Preds)
	return b.String()
}

// Delete is a predicated DELETE statement removing the rows of Table
// matching the predicates.
type Delete struct {
	Table string
	Preds []Predicate
}

// String renders the delete as SQL.
func (d *Delete) String() string {
	var b strings.Builder
	b.WriteString("DELETE FROM ")
	b.WriteString(d.Table)
	writeWhere(&b, d.Preds)
	return b.String()
}

func writeWhere(b *strings.Builder, preds []Predicate) {
	if len(preds) == 0 {
		return
	}
	b.WriteString(" WHERE ")
	for i, p := range preds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
}

// Statement is one weighted workload entry: exactly one of Query, Insert,
// Update or Delete is non-nil.
type Statement struct {
	Query  *Query
	Insert *Insert
	Update *Update
	Delete *Delete
	Weight float64
	Label  string // e.g. "Q6", "LOAD-LINEITEM", "U1"
}

// IsQuery reports whether the statement is a SELECT.
func (s *Statement) IsQuery() bool { return s.Query != nil }

// IsWrite reports whether the statement modifies data (INSERT, UPDATE or
// DELETE).
func (s *Statement) IsWrite() bool {
	return s.Insert != nil || s.Update != nil || s.Delete != nil
}

// WriteTable returns the table a write statement modifies; ok is false for
// queries.
func (s *Statement) WriteTable() (string, bool) {
	switch {
	case s.Insert != nil:
		return s.Insert.Table, true
	case s.Update != nil:
		return s.Update.Table, true
	case s.Delete != nil:
		return s.Delete.Table, true
	}
	return "", false
}

// WritePreds returns the predicates qualifying a predicated write (UPDATE or
// DELETE); nil for bulk inserts and queries.
func (s *Statement) WritePreds() []Predicate {
	switch {
	case s.Update != nil:
		return s.Update.Preds
	case s.Delete != nil:
		return s.Delete.Preds
	}
	return nil
}

// String renders the statement.
func (s *Statement) String() string {
	var body string
	switch {
	case s.Query != nil:
		body = s.Query.String()
	case s.Insert != nil:
		body = s.Insert.String()
	case s.Update != nil:
		body = s.Update.String()
	case s.Delete != nil:
		body = s.Delete.String()
	default:
		body = "<empty>"
	}
	if s.Label != "" {
		return fmt.Sprintf("[%s w=%g] %s", s.Label, s.Weight, body)
	}
	return fmt.Sprintf("[w=%g] %s", s.Weight, body)
}

// Workload is a weighted list of statements.
type Workload struct {
	Statements []*Statement
}

// Queries returns the SELECT statements.
func (w *Workload) Queries() []*Statement {
	var out []*Statement
	for _, s := range w.Statements {
		if s.IsQuery() {
			out = append(out, s)
		}
	}
	return out
}

// Inserts returns the bulk-load statements.
func (w *Workload) Inserts() []*Statement {
	var out []*Statement
	for _, s := range w.Statements {
		if s.Insert != nil {
			out = append(out, s)
		}
	}
	return out
}

// Updates returns the UPDATE and DELETE statements.
func (w *Workload) Updates() []*Statement {
	var out []*Statement
	for _, s := range w.Statements {
		if s.Update != nil || s.Delete != nil {
			out = append(out, s)
		}
	}
	return out
}

// Reweight returns a copy of the workload with every INSERT statement's
// weight multiplied by factor. This is how the SELECT-intensive and
// INSERT-intensive variants of a workload are derived (Section 7).
func (w *Workload) Reweight(insertFactor float64) *Workload {
	return w.reweight(insertFactor, func(s *Statement) bool { return s.Insert != nil })
}

// ReweightUpdates returns a copy with every UPDATE and DELETE statement's
// weight multiplied by factor — how the update-intensive mixes are derived.
func (w *Workload) ReweightUpdates(factor float64) *Workload {
	return w.reweight(factor, func(s *Statement) bool { return s.Update != nil || s.Delete != nil })
}

// ReweightWrites returns a copy with every write statement's (INSERT, UPDATE,
// DELETE) weight multiplied by factor.
func (w *Workload) ReweightWrites(factor float64) *Workload {
	return w.reweight(factor, (*Statement).IsWrite)
}

func (w *Workload) reweight(factor float64, match func(*Statement) bool) *Workload {
	out := &Workload{}
	for _, s := range w.Statements {
		c := *s
		if match(s) {
			c.Weight *= factor
		}
		out.Statements = append(out.Statements, &c)
	}
	return out
}

// TotalWeight sums the statement weights.
func (w *Workload) TotalWeight() float64 {
	var t float64
	for _, s := range w.Statements {
		t += s.Weight
	}
	return t
}
