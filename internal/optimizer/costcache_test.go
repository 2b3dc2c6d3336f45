package optimizer

import (
	"slices"
	"testing"

	"cadb/internal/index"
)

// memoDelta runs fn and returns how many atomic-term lookups it served from
// the memo (hits) and how many it had to compute (misses).
func memoDelta(cm *CostModel, fn func()) (hits, misses uint64) {
	h0, m0 := cm.CostCacheStats()
	fn()
	h1, m1 := cm.CostCacheStats()
	return h1 - h0, m1 - m0
}

func TestMemoIgnoresIrrelevantNeighbors(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	q := parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN DATE 9000 AND DATE 9100")
	hLine := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_extendedprice"}})
	hOrders := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}})

	cfg := NewConfiguration(hLine)
	var first float64
	if hits, misses := memoDelta(cm, func() { first = cm.Cost(q, cfg) }); hits != 0 || misses != 1 {
		t.Fatalf("cold: want the one (statement, lineitem index) term computed, got %d hits / %d misses", hits, misses)
	}

	// An index on an unrelated table contributes no term to the statement:
	// nothing new is computed, the lineitem term is reused, the cost is equal.
	var second float64
	hits, misses := memoDelta(cm, func() { second = cm.Cost(q, cfg.With(hOrders)) })
	if hits != 1 || misses != 0 {
		t.Fatalf("irrelevant neighbor: want 1 hit / 0 misses, got %d/%d", hits, misses)
	}
	if second != first {
		t.Fatalf("memoized cost %v != original %v", second, first)
	}
	if want := cm.refPlan(q, cfg.With(hOrders)).Total; second != want {
		t.Fatalf("memoized cost %v != reference plan search %v", second, want)
	}
}

func TestMemoRecomputesOnRelevantChange(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	q := parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN DATE 8100 AND DATE 10500")
	hWide := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_extendedprice"}})
	hNarrow := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipmode"}})

	cfg := NewConfiguration(hNarrow)
	base := cm.Cost(q, cfg)

	// Adding an index on the statement's table brings exactly one new term;
	// the one already known is reused.
	grown := cfg.With(hWide)
	var withWide float64
	if hits, misses := memoDelta(cm, func() { withWide = cm.Cost(q, grown) }); hits != 1 || misses != 1 {
		t.Fatalf("relevant change: want 1 hit / 1 miss, got %d/%d", hits, misses)
	}
	if want := cm.refPlan(q, grown).Total; withWide != want {
		t.Fatalf("cost after relevant change %v != reference plan search %v", withWide, want)
	}
	if withWide >= base {
		t.Fatalf("covering index did not reduce cost: %v >= %v", withWide, base)
	}

	// A revised size estimate arrives as a copy (same definition, new Bytes):
	// the copy is a different structure to the memo and gets a fresh term,
	// never the original's stale one.
	resized := *hWide
	resized.Bytes = hWide.Bytes / 2
	shrunk := cfg.With(&resized)
	var withShrunk float64
	if _, misses := memoDelta(cm, func() { withShrunk = cm.Cost(q, shrunk) }); misses != 1 {
		t.Fatalf("resized copy: want a fresh term, got %d computed", misses)
	}
	if want := cm.refPlan(q, shrunk).Total; withShrunk != want {
		t.Fatalf("cost after size change %v != reference plan search %v", withShrunk, want)
	}
	if withShrunk >= withWide {
		t.Fatalf("halving the index did not reduce the cost: %v >= %v", withShrunk, withWide)
	}
}

func TestMemoInsertStatements(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	ins := parseQ(t, "INSERT INTO lineitem BULK 500")
	hLine := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}})
	hOrders := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}})

	base := cm.Cost(ins, NewConfiguration())
	// Maintenance cost appears only when an index lands on the insert's
	// table; an index elsewhere contributes no term and keeps the cost.
	hits, misses := memoDelta(cm, func() {
		if got := cm.Cost(ins, NewConfiguration(hOrders)); got != base {
			t.Fatalf("orders index changed lineitem insert cost: %v != %v", got, base)
		}
	})
	if hits != 0 || misses != 0 {
		t.Fatalf("irrelevant insert neighbor: want no term lookups, got %d/%d", hits, misses)
	}
	if got := cm.Cost(ins, NewConfiguration(hLine)); got <= base {
		t.Fatalf("index maintenance not charged: %v <= %v", got, base)
	}
}

func TestMemoReset(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	q := parseQ(t, "SELECT SUM(o_totalprice), COUNT(*) FROM orders")
	cfg := NewConfiguration(build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}}))
	warm := func() {
		t.Helper()
		cm.Cost(q, cfg)
		if hits, misses := memoDelta(cm, func() { cm.Cost(q, cfg) }); hits != 1 || misses != 0 {
			t.Fatalf("warm lookup: want 1 hit / 0 misses, got %d/%d", hits, misses)
		}
	}
	cold := func(after string) {
		t.Helper()
		if h, m := cm.CostCacheStats(); h != 0 || m != 0 {
			t.Fatalf("%s: stats not reset: %d/%d", after, h, m)
		}
		if _, misses := memoDelta(cm, func() { cm.Cost(q, cfg) }); misses != 1 {
			t.Fatalf("%s: memo not emptied", after)
		}
	}
	warm()
	cm.ResetCostCache()
	cold("ResetCostCache")
}

// TestWhatIfAllocationBudgets pins the memo's garbage: a cold query term is
// at most one object (the term; its path's seek list and column sets come
// from the compiled statement and the handle) and an unusable one none (the
// shared sentinel), pricing a query on a warm memo allocates nothing, and
// Def.Columns allocates at most its result.
func TestWhatIfAllocationBudgets(t *testing.T) {
	for _, c := range testCases(t) {
		m := NewCostModel(c.db).memo.Load()
		handles := make([]*handle, len(c.pool))
		for i, h := range c.pool {
			handles[i] = m.intern(h)
			if n := testing.AllocsPerRun(10, func() { h.Def.Columns() }); n > 1 {
				t.Errorf("%s: %s: Def.Columns allocates %v objects, want at most 1", c.name, h.ID(), n)
			}
		}
		terms := 0
		for _, s := range c.wl.Statements {
			if s.Query == nil {
				continue
			}
			cs := m.compile(s)
			var cfg []*handle
			for ti := range cs.tables {
				ct := &cs.tables[ti]
				for _, hd := range handles {
					if hd.mv || hd.tbl != ct.tbl {
						continue
					}
					cfg = append(cfg, hd)
					terms++
					budget := 1.0
					if !m.newTerm(cs, ct, hd).ok {
						budget = 0
					}
					if n := testing.AllocsPerRun(10, func() { m.newTerm(cs, ct, hd) }); n > budget {
						t.Errorf("%s: %s: cold term for %s allocates %v objects, want at most %v", c.name, s.Label, hd.id, n, budget)
					}
				}
			}
			m.price(cs, cfg, nil)
			if n := testing.AllocsPerRun(10, func() { m.price(cs, cfg, nil) }); n != 0 {
				t.Errorf("%s: %s: pricing on a warm memo allocates %v objects, want 0", c.name, s.Label, n)
			}
		}
		if terms == 0 {
			t.Fatalf("%s: no query term was measured", c.name)
		}
	}
}

// TestSeekListNeverWritesThePredicates: an index path's seek list is a
// window of the compiled statement's predicates while they sit there in key
// order, and a copy once they do not. Extending it past a gap must not write
// into the predicates: with keys (l_shipmode, l_returnflag) over predicates
// on l_shipmode, l_quantity, l_returnflag, an uncapped window would
// overwrite the l_quantity predicate with the l_returnflag one.
func TestSeekListNeverWritesThePredicates(t *testing.T) {
	cm := NewCostModel(testDB(t))
	q := parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipmode = 'MAIL' AND l_quantity > 5 AND l_returnflag = 'R'")
	for _, c := range []struct {
		keys []string
		seek []string
	}{
		{[]string{"l_shipmode", "l_quantity"}, []string{"l_shipmode", "l_quantity"}}, // a window
		{[]string{"l_shipmode", "l_returnflag"}, []string{"l_shipmode", "l_returnflag"}},
		{[]string{"l_returnflag", "l_shipmode", "l_quantity"}, []string{"l_returnflag", "l_shipmode", "l_quantity"}},
	} {
		m := cm.memo.Load()
		ct := &m.compile(q).tables[0]
		ap, ok := cm.indexPath(ct, m.intern(build(t, &index.Def{Table: "lineitem", KeyCols: c.keys, IncludeCols: []string{"l_extendedprice"}})))
		var got []string
		for _, p := range ap.Seek {
			got = append(got, p.Col)
		}
		if !ok || !slices.Equal(got, c.seek) {
			t.Errorf("keys %v: seek on %v (usable %v), want %v", c.keys, got, ok, c.seek)
		}
		var preds []string
		for _, p := range ct.preds {
			preds = append(preds, p.Col)
		}
		if want := []string{"l_shipmode", "l_quantity", "l_returnflag"}; !slices.Equal(preds, want) {
			t.Fatalf("keys %v: the compiled predicates became %v, want %v", c.keys, preds, want)
		}
	}
}
