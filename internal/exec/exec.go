// Package exec is a reference executor for the workload subset: FK hash
// joins, predicate filtering, grouping/aggregation, projection and ordering
// for queries, plus in-place UPDATE/DELETE application. The advisor never
// needs it (it optimizes optimizer-estimated costs, like the paper's tool),
// but the test suite uses it to validate workload semantics end-to-end and
// to check the optimizer's cardinality estimates — including the
// qualifying-row counts of predicated writes — against ground truth.
package exec

import (
	"fmt"
	"strings"

	"cadb/internal/catalog"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// Result is an executed query's output. IO and Paths are populated only by
// the segment-backed executor (Store.RunQuery); the plain-row oracle leaves
// them zero.
type Result struct {
	Schema *storage.Schema
	Rows   []storage.Row
	// IO counts the physical page work of a segment-backed execution.
	IO IOStats
	// Paths describes the access paths taken, one entry per table access.
	Paths []string
}

// Run executes the query against the database and returns the result rows.
func Run(db *catalog.Database, q *workload.Query) (*Result, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("exec: query has no tables")
	}
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		return runAggregate(db, q)
	}
	return runProjection(db, q)
}

// runAggregate evaluates grouped/aggregated queries by reusing the MV
// materializer (the semantics are identical by construction).
func runAggregate(db *catalog.Database, q *workload.Query) (*Result, error) {
	mv := &index.MVDef{
		Name:    "q",
		Fact:    q.Tables[0],
		Joins:   q.Joins,
		Where:   q.Preds,
		GroupBy: q.GroupBy,
		Aggs:    q.Aggs,
	}
	schema, rows, err := index.MaterializeMV(db, mv)
	if err != nil {
		return nil, err
	}
	return finishAggregate(schema, rows, q)
}

// runProjection evaluates plain select-project-join queries.
func runProjection(db *catalog.Database, q *workload.Query) (*Result, error) {
	schema, rows, err := index.JoinRows(db, q.Tables[0], q.Joins)
	if err != nil {
		return nil, err
	}
	rows, err = index.FilterRows(schema, rows, q.Preds)
	if err != nil {
		return nil, err
	}
	keep, err := selectList(db, q.Tables[0], schema, q)
	if err != nil {
		return nil, err
	}
	return applyOrder(&Result{Schema: schema.Project(keep), Rows: projectRows(schema, rows, keep)}, q)
}

func projectRows(schema *storage.Schema, rows []storage.Row, keep []string) []storage.Row {
	idx := make([]int, len(keep))
	for i, n := range keep {
		idx[i] = schema.ColIndex(n)
	}
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		row := make(storage.Row, len(idx))
		for j, k := range idx {
			row[j] = r[k]
		}
		out[i] = row
	}
	return out
}

// resolveName maps a query column reference onto the wide schema's
// table_col naming (or MV output naming).
func resolveName(schema *storage.Schema, c workload.ColRef) (string, error) {
	if c.Table != "" {
		q := strings.ToLower(c.Table + "_" + c.Col)
		if schema.Has(q) {
			return q, nil
		}
	}
	if schema.Has(c.Col) {
		return strings.ToLower(c.Col), nil
	}
	suffix := "_" + strings.ToLower(c.Col)
	var found string
	for _, col := range schema.Columns {
		if strings.HasSuffix(strings.ToLower(col.Name), suffix) {
			if found != "" {
				return "", fmt.Errorf("exec: ambiguous column %q", c)
			}
			found = col.Name
		}
	}
	if found == "" {
		return "", fmt.Errorf("exec: column %q not found", c)
	}
	return found, nil
}

// CountMatching returns the number of driving-table rows satisfying the
// query's predicates on that table — the ground truth for selectivity
// validation.
func CountMatching(db *catalog.Database, table string, preds []workload.Predicate) (int64, error) {
	t := db.Table(table)
	if t == nil {
		return 0, fmt.Errorf("exec: unknown table %q", table)
	}
	var n int64
	for _, r := range t.Rows {
		if matchesAll(t.Schema, r, preds) {
			n++
		}
	}
	return n, nil
}

func matchesAll(s *storage.Schema, r storage.Row, preds []workload.Predicate) bool {
	for _, p := range preds {
		if !p.Matches(s, r) {
			return false
		}
	}
	return true
}

// RunUpdate applies a predicated UPDATE to the database in place, returning
// the number of rows modified — the ground truth the cost model's
// qualifying-row estimate is validated against. Assignment values are
// coerced to the column kind; cached table statistics are invalidated when
// any row changed.
func RunUpdate(db *catalog.Database, u *workload.Update) (int64, error) {
	rids, err := updateRows(db, u)
	return int64(len(rids)), err
}

// updateRows is the one update loop, the oracle's and the store's: it
// rewrites every row the UPDATE matches and returns their RIDs, ascending.
// A matched row is rewritten, and reported, even when it already holds the
// new values.
func updateRows(db *catalog.Database, u *workload.Update) ([]int64, error) {
	t := db.Table(u.Table)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %q", u.Table)
	}
	type setIdx struct {
		col int
		val storage.Value
	}
	sets := make([]setIdx, 0, len(u.Set))
	for _, a := range u.Set {
		ci := t.Schema.ColIndex(a.Col)
		if ci < 0 {
			return nil, fmt.Errorf("exec: table %q has no column %q", u.Table, a.Col)
		}
		v := a.Value
		if !v.Null {
			v = v.CoerceTo(t.Schema.Columns[ci].Kind)
		}
		if v.Null && !t.Schema.Columns[ci].Nullable {
			return nil, fmt.Errorf("exec: column %s.%s is not nullable", u.Table, a.Col)
		}
		sets = append(sets, setIdx{col: ci, val: v})
	}
	var rids []int64
	for i, r := range t.Rows {
		if !matchesAll(t.Schema, r, u.Preds) {
			continue
		}
		// Copy-on-write: samples, materialized structures and overlays may
		// share the row slice.
		nr := r
		for _, s := range sets {
			nr = nr.WithValue(s.col, s.val)
		}
		t.Rows[i] = nr
		rids = append(rids, int64(i))
	}
	if len(rids) > 0 {
		t.InvalidateStats()
	}
	return rids, nil
}

// RunDelete removes the rows matching a predicated DELETE, returning the
// number of rows removed. Cached table statistics are invalidated when any
// row was dropped.
func RunDelete(db *catalog.Database, d *workload.Delete) (int64, error) {
	t := db.Table(d.Table)
	if t == nil {
		return 0, fmt.Errorf("exec: unknown table %q", d.Table)
	}
	kept := t.Rows[:0]
	for _, r := range t.Rows {
		if matchesAll(t.Schema, r, d.Preds) {
			continue
		}
		kept = append(kept, r)
	}
	n := int64(len(t.Rows) - len(kept))
	t.Rows = kept
	if n > 0 {
		t.InvalidateStats()
	}
	return n, nil
}
