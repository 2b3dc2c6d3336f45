package exec

import (
	"cadb/internal/catalog"
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
// result and applies the query's ordering.
func finishAggregate(schema *storage.Schema, rows []storage.Row, q *workload.Query) (*Result, error) {
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
		name, err := resolveName(schema, c)
		if err != nil {
			return nil, err
		}
		keep = append(keep, name)
	}
	return keep, nil
}

// applyOrder sorts the result by the ORDER BY keys, or canonically (on
// every column) when the query leaves the order unconstrained — the
// reproducibility contract the byte-identity differential tests rely on.
// Canonical ordering is also what lets unordered access paths skip
// insertion-order restoration: byte-equal rows are interchangeable under a
// deterministic whole-row sort.
func applyOrder(res *Result, q *workload.Query) (*Result, error) {
	if len(q.OrderBy) > 0 {
		if err := orderBy(res, q.OrderBy); err != nil {
			return nil, err
		}
		return res, nil
	}
	sortCanonical(res)
	return res, nil
}
