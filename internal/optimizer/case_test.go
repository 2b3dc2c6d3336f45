package optimizer

import (
	"testing"

	"cadb/internal/index"
)

// TestTableNameCaseAgreement pins the normalization contract: relevance
// scoping (evaluator), costing (the memo's table ordinals) and
// Configuration's per-table views must agree on table identity regardless of
// how the statement or the index definition spells the name. A disagreement
// would either keep a stale base cost (scope thinks the index is irrelevant
// while the price changes) or waste re-pricing (scope thinks everything is
// relevant).
func TestTableNameCaseAgreement(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	m := cm.memo.Load()

	// The same physical index, declared with different casings of the table.
	lower := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}})
	upper := &HypoIndex{
		Def:               &index.Def{Table: "LINEITEM", KeyCols: []string{"l_shipdate"}},
		Rows:              lower.Rows,
		Bytes:             lower.Bytes,
		UncompressedBytes: lower.UncompressedBytes,
	}
	other := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}})

	stmts := []string{
		"SELECT SUM(l_extendedprice) FROM LineItem WHERE l_shipdate < DATE 9000",
		"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate < DATE 9000",
		"INSERT INTO LINEITEM BULK 100",
		"UPDATE LineItem SET l_discount = 0.0 WHERE l_shipdate < DATE 9000",
		"DELETE FROM LINEITEM WHERE l_shipdate < DATE 9000",
	}
	for _, sql := range stmts {
		s := parseQ(t, sql)
		p := &pricing{m: m, cs: m.compile(s)}
		// consulted reports whether pricing s under {h} looks up a term for h.
		consulted := func(h *HypoIndex) bool {
			hits, misses := memoDelta(cm, func() { cm.Cost(s, NewConfiguration(h)) })
			return hits+misses > 0
		}
		for _, h := range []*HypoIndex{lower, upper} {
			// Relevance scope and costing must agree: the index is in scope
			// and the statement's price consults it, however its table is
			// spelled.
			if !p.changes(m.intern(h)) {
				t.Errorf("%q: scope must see index on %q as relevant", sql, h.Def.Table)
			}
			if !consulted(h) {
				t.Errorf("%q: pricing must consult the index on %q", sql, h.Def.Table)
			}
		}
		// And both must agree the orders index is irrelevant.
		if p.changes(m.intern(other)) {
			t.Errorf("%q: orders index must be out of scope", sql)
		}
		if consulted(other) {
			t.Errorf("%q: pricing must not consult the orders index", sql)
		}
	}

	// The configuration's per-table view folds case in both directions.
	for _, c := range []struct{ declared, asked string }{{"LINEITEM", "lineitem"}, {"lineitem", "LINEITEM"}} {
		cl := &HypoIndex{Def: &index.Def{Table: c.declared, KeyCols: []string{"l_orderkey"}, Clustered: true}}
		if NewConfiguration(cl).Clustered(c.asked) != cl {
			t.Fatalf("Clustered(%q) missed the index declared on %q", c.asked, c.declared)
		}
	}
	cfg := NewConfiguration(upper)

	// Identical statements spelled with different table casing price the
	// same, so a mixed-case workload cannot disagree with itself.
	a := parseQ(t, stmts[0])
	b := parseQ(t, stmts[1])
	if cm.Cost(a, cfg) != cm.Cost(b, cfg) {
		t.Fatal("identical statements with different table casing produced different costs")
	}
}
