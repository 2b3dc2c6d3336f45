package exec

import (
	"slices"

	"cadb/internal/catalog"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// This file is the single result-shaping tail shared by the plain-row
// oracle (Run) and the segment-backed executor (Store). Both produce a wide
// row set through the same join/filter/group operators; what comes after —
// select-list resolution, ordering — happens here exactly once, so the
// differential tests compare access paths, not re-implementations of the
// output pipeline. (The oracle projects its materialized rows onto the
// resolved list; the store copies each survivor straight into that shape.)

// finishAggregate projects away the hidden __count column of a grouped
// result and applies the query's ordering. An aggregate without GROUP BY has
// exactly one result row even over no input rows, as in SQL: COUNT is 0 and
// every other aggregate NULL. (The accumulator emits one row per group, and
// no input makes no group.)
func finishAggregate(schema *storage.Schema, rows []storage.Row, q *workload.Query) (*Result, error) {
	if len(q.GroupBy) == 0 && len(rows) == 0 {
		empty := make(storage.Row, len(schema.Columns))
		for i, c := range schema.Columns {
			empty[i] = storage.NullValue(c.Kind)
			if i < len(q.Aggs) && q.Aggs[i].Func == workload.AggCount {
				empty[i] = storage.IntVal(0)
			}
		}
		rows = []storage.Row{empty}
	}
	keep := make([]string, 0, len(schema.Columns))
	for _, c := range schema.Columns {
		if c.Name != "__count" {
			keep = append(keep, c.Name)
		}
	}
	res := &Result{Schema: schema.Project(keep), Rows: projectRows(schema, rows, keep)}
	return applyOrder(res, q)
}

// selectList resolves the select list against the wide schema (SELECT *
// expands to the driving table's columns) to the wide column names the
// result keeps, in output order.
func selectList(db *catalog.Database, fact string, schema *storage.Schema, q *workload.Query) ([]string, error) {
	cols := q.Select
	if len(cols) == 0 {
		// SELECT *: every column of the driving table.
		t := db.MustTable(fact)
		for _, c := range t.Schema.Names() {
			cols = append(cols, workload.ColRef{Table: fact, Col: c})
		}
	}
	keep := make([]string, 0, len(cols))
	for _, c := range cols {
		i, err := index.ResolveCol(schema, c)
		if err != nil {
			return nil, err
		}
		keep = append(keep, schema.Columns[i].Name)
	}
	return keep, nil
}

// applyOrder sorts the result by the ORDER BY keys, then breaks their ties
// by the whole row, every comparison under storage.Value.CompareTotal; with
// no ORDER BY the whole-row order alone decides. Only byte-identical rows
// tie, so the output is a function of the row multiset, not of the order the
// access path delivered it in — the byte-identity contract between the store
// and the oracle.
func applyOrder(res *Result, q *workload.Query) (*Result, error) {
	keys := make([]int, 0, len(q.OrderBy)+len(res.Schema.Columns))
	for _, k := range q.OrderBy {
		i, err := index.ResolveCol(res.Schema, k)
		if err != nil {
			return nil, err
		}
		keys = append(keys, i)
	}
	for i := range res.Schema.Columns {
		keys = append(keys, i)
	}
	slices.SortFunc(res.Rows, func(a, b storage.Row) int {
		for _, k := range keys {
			if c := a[k].CompareTotal(b[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	return res, nil
}
