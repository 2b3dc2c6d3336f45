package optimizer

import (
	"math/rand"
	"sync"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// relevancePool spans every kind of structure the relevance rule tells
// apart, each in several compression variants: plain, partial, clustered —
// two on lineitem, and a partial one few queries can use, so configurations
// hold a base structure whose term is unusable ahead of one whose term is
// not — and grouped views, one joining orders so that writes to orders
// maintain it. Sizes are jittered, not built: the cost model only needs
// plausible, varied numbers.
func relevancePool(db *catalog.Database, rng *rand.Rand) []*HypoIndex {
	mail := workload.Predicate{Col: "l_shipmode", Op: workload.OpEq, Lo: storage.StringVal("MAIL")}
	defs := []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_extendedprice", "l_discount"}},
		{Table: "lineitem", KeyCols: []string{"l_shipmode"}},
		{Table: "lineitem", KeyCols: []string{"l_partkey"}, IncludeCols: []string{"l_quantity"}},
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_extendedprice"}, Where: []workload.Predicate{mail}},
		{Table: "lineitem", KeyCols: []string{"l_orderkey"}, Clustered: true},
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Where: []workload.Predicate{mail}},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}},
		{Table: "orders", KeyCols: []string{"o_orderkey"}, Clustered: true},
		{Table: "part", KeyCols: []string{"p_brand"}},
		{Table: "mv_mode", KeyCols: []string{"lineitem_l_shipmode"}, MV: &index.MVDef{Name: "mv_mode", Fact: "lineitem",
			GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
			Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}}}},
		{Table: "mv_prio", KeyCols: []string{"orders_o_orderpriority"}, MV: &index.MVDef{Name: "mv_prio", Fact: "lineitem",
			Joins:   []workload.Join{{LeftTable: "lineitem", LeftCol: "l_orderkey", RightTable: "orders", RightCol: "o_orderkey"}},
			GroupBy: []workload.ColRef{{Table: "orders", Col: "o_orderpriority"}},
			Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_quantity"}}}}},
	}
	var pool []*HypoIndex
	for _, d := range defs {
		rows, width := int64(50+rng.Intn(400)), 24.0
		if d.MV == nil {
			t := db.Table(d.Table)
			rows, width = t.RowCount(), 8*float64(len(d.Columns())+1)
			if d.Clustered {
				width = t.AvgRowWidth() + 8
			}
			if d.IsPartial() {
				rows = int64(float64(rows) * CombinedSelectivity(t, d.Where))
			}
		}
		unc := int64(float64(rows) * width)
		sized := func(v *index.Def, cf float64) *HypoIndex {
			return NewHypoIndex(v, rows, int64(float64(unc)*cf*(0.8+0.4*rng.Float64())), unc)
		}
		page := d.WithMethod(compress.Page)
		pool = append(pool, sized(d.Uncompressed(), 1), sized(d.WithMethod(compress.Row), 0.65),
			sized(page, 0.4), sized(page.WithColMethod(d.KeyCols[0], compress.GlobalDict), 0.35))
	}
	return pool
}

// relevanceWorkload mixes queries the pool serves, a self-join, queries no
// structure serves, and inserts, updates and deletes on lineitem and on
// orders, which one view joins.
func relevanceWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	stmts := []*workload.Statement{
		parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN DATE 9000 AND DATE 9200"),
		parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipmode = 'MAIL' AND l_shipdate < DATE 9300"),
		parseQ(t, "SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem GROUP BY l_shipmode"),
		parseQ(t, "SELECT orders.o_orderpriority, SUM(lineitem.l_quantity) FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey GROUP BY orders.o_orderpriority"),
		parseQ(t, "SELECT o_orderdate, SUM(o_totalprice) FROM orders WHERE o_orderdate >= DATE 9500 GROUP BY o_orderdate"),
		parseQ(t, "SELECT SUM(lineitem.l_quantity) FROM lineitem JOIN part ON lineitem.l_partkey = part.p_partkey WHERE part.p_brand = 'Brand#23'"),
		parseQ(t, "SELECT COUNT(*) FROM lineitem JOIN lineitem ON lineitem.l_orderkey = lineitem.l_orderkey WHERE l_shipdate < DATE 8600"),
		parseQ(t, "SELECT SUM(s_acctbal) FROM supplier WHERE s_acctbal > 100.0"),
		parseQ(t, "SELECT MAX(l_tax) FROM lineitem WHERE l_quantity > 45"),
		parseQ(t, "INSERT INTO lineitem BULK 500"),
		parseQ(t, "INSERT INTO orders BULK 200"),
		parseQ(t, "UPDATE lineitem SET l_discount = 0.02 WHERE l_shipdate BETWEEN DATE 9100 AND DATE 9400"),
		parseQ(t, "UPDATE orders SET o_orderpriority = '1-URGENT' WHERE o_orderdate < DATE 8400"),
		parseQ(t, "DELETE FROM orders WHERE o_orderdate < DATE 8200"),
	}
	for i, s := range stmts {
		s.Weight = float64(1 + i%3)
	}
	return &workload.Workload{Statements: stmts}
}

// TestEvaluatorRandomDeltas is the property test of the relevance rule:
// along random sequences of CostWithAdd, CostWithReplace and Advance over
// every kind of structure, every total must equal — bit for bit — a full
// WorkloadCost recompute on a cache-cold model, and CostEach must equal
// Cost. Each step's what-ifs run concurrently beside a CostEach on the same
// model, as the advisor's workers run them, so that under the race detector
// the term lookups relevance makes are checked too. The configurations are
// not filtered as the advisor's are: they may hold two clustered structures
// on a table, in any order, and duplicate members. A rule that decided a
// clustered structure by its term alone fails here: replacing an index
// ahead of the usable clustered one with the unusable partial one makes the
// latter the base structure and puts the heap scan back in the running.
func TestEvaluatorRandomDeltas(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	fresh := NewCostModel(d)
	wl := relevanceWorkload(t)
	rng := rand.New(rand.NewSource(29))
	pool := relevancePool(d, rng)
	fullCost := func(cfg *Configuration) float64 {
		fresh.ResetCostCache()
		return fresh.WorkloadCost(wl, cfg)
	}
	type delta struct {
		old, h *HypoIndex // old is nil for an add
		next   *Configuration
		cost   float64
	}
	stats := &EvaluatorStats{}
	for seq := 0; seq < 40; seq++ {
		var members []*HypoIndex
		for _, h := range pool {
			if rng.Intn(6) == 0 {
				members = append(members, h)
			}
		}
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		ev := NewEvaluator(cm, wl, NewConfiguration(members...), stats)
		for step := 0; step < 6; step++ {
			deltas := make([]delta, 4)
			in := ev.Base().Indexes()
			for i := range deltas {
				deltas[i].h = pool[rng.Intn(len(pool))]
				if len(in) > 0 && rng.Intn(2) == 0 {
					deltas[i].old = in[rng.Intn(len(in))]
				}
			}
			s := wl.Statements[rng.Intn(len(wl.Statements))]
			var scores []float64
			var wg sync.WaitGroup
			for i := range deltas {
				wg.Add(1)
				go func(dl *delta) {
					defer wg.Done()
					if dl.old != nil {
						dl.next, dl.cost = ev.CostWithReplace(dl.old, dl.h)
					} else {
						dl.next, dl.cost = ev.CostWithAdd(dl.h)
					}
				}(&deltas[i])
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				scores = cm.CostEach(s, pool)
			}()
			wg.Wait()

			for _, dl := range deltas {
				if want := fullCost(dl.next); dl.cost != want {
					t.Fatalf("seq %d step %d: what-if replacing %v by %v = %v, full recompute %v", seq, step, dl.old, dl.h, dl.cost, want)
				}
			}
			for i, h := range pool {
				if want := fresh.Cost(s, NewConfiguration(h)); scores[i] != want {
					t.Fatalf("seq %d step %d: CostEach of %s under %s = %v, Cost %v", seq, step, s.Label, h.Def, scores[i], want)
				}
			}
			if dl := deltas[rng.Intn(len(deltas))]; rng.Intn(2) == 0 {
				ev = ev.Advance(dl.next, dl.old, dl.h)
				if got, want := ev.Total(), fullCost(dl.next); got != want {
					t.Fatalf("seq %d step %d: advanced total %v, full recompute %v", seq, step, got, want)
				}
			}
		}
	}
	// The rule must also skip something, or it is the table rule again.
	if _, delta, reused := stats.Snapshot(); reused == 0 || delta == 0 {
		t.Fatalf("want both re-planned and reused statements, got %d/%d", delta, reused)
	}
}

// TestCostEachMatchesCost: the per-candidate scorer returns, for every
// statement and candidate, the float Cost returns for the candidate alone.
func TestCostEachMatchesCost(t *testing.T) {
	for _, c := range testCases(t) {
		cm, ref := NewCostModel(c.db), NewCostModel(c.db)
		for _, s := range c.wl.Statements {
			costs := cm.CostEach(s, c.pool)
			for i, h := range c.pool {
				if want := ref.Cost(s, NewConfiguration(h)); costs[i] != want {
					t.Fatalf("%s: %s under %s: CostEach %v, Cost %v", c.name, s.Label, h.Def, costs[i], want)
				}
			}
		}
	}
}

// TestDimensionWritesMaintainViews: a write to a table a view joins costs
// the view's maintenance, as the store rebuilds the view after it, unless
// it cannot change the view's groups — an UPDATE of columns the view does
// not read, or an INSERT, whose rows no fact row references yet.
func TestDimensionWritesMaintainViews(t *testing.T) {
	sales := datagen.NewSales(datagen.SalesConfig{FactRows: 4000, Zipf: 0.8, Seed: 5})
	cm := NewCostModel(sales)
	mv := &index.MVDef{Name: "mv_region", Fact: "sales",
		Joins:   []workload.Join{{LeftTable: "sales", LeftCol: "storeid", RightTable: "stores", RightCol: "storeid"}},
		GroupBy: []workload.ColRef{{Table: "stores", Col: "region"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "sales", Col: "price"}}}}
	view := NewConfiguration(NewHypoIndex(&index.Def{Table: "mv_region", KeyCols: []string{"stores_region"}, MV: mv}, 4, 200, 200))
	for _, c := range []struct {
		sql      string
		maintain bool
	}{
		{"UPDATE stores SET region = 'WEST' WHERE storeid < 5", true},
		{"DELETE FROM stores WHERE storeid = 3", true},
		{"UPDATE stores SET storeid = 99 WHERE storeid = 3", true},
		{"UPDATE stores SET city = 'Springfield' WHERE storeid < 5", false},
		{"INSERT INTO stores BULK 10", false},
		{"UPDATE products SET brand = 'X' WHERE prodid < 5", false},
	} {
		s := parseQ(t, c.sql)
		without, with := cm.Cost(s, NewConfiguration()), cm.Cost(s, view)
		if c.maintain && with <= without || !c.maintain && with != without {
			t.Errorf("%s: %v with the view, %v without; want the view maintained: %v", c.sql, with, without, c.maintain)
		}
	}
}
