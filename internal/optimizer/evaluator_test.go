package optimizer

import (
	"math/rand"
	"testing"

	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/workload"
)

// evalPool builds a candidate pool spanning several tables, compression
// variants and an MV — everything the relevance scoping must handle.
func evalPool(t *testing.T) []*HypoIndex {
	t.Helper()
	defs := []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_extendedprice", "l_discount"}},
		{Table: "lineitem", KeyCols: []string{"l_shipmode"}},
		{Table: "lineitem", KeyCols: []string{"l_partkey"}, IncludeCols: []string{"l_quantity"}},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}},
		{Table: "orders", KeyCols: []string{"o_custkey"}},
		{Table: "part", KeyCols: []string{"p_brand"}},
		{Table: "customer", KeyCols: []string{"c_mktsegment"}},
	}
	var pool []*HypoIndex
	for _, d := range defs {
		pool = append(pool, build(t, d.Uncompressed()), build(t, d.WithMethod(compress.Row)))
	}
	mv := &index.MVDef{
		Name:    "mv_eval",
		Fact:    "lineitem",
		GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
	}
	pool = append(pool, build(t, &index.Def{Table: "mv_eval", KeyCols: []string{"lineitem_l_shipmode"}, MV: mv}))
	return pool
}

// evalWorkload mixes joins, single-table aggregates, MV-answerable queries
// and inserts across the pool's tables.
func evalWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	stmts := []*workload.Statement{
		parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN DATE 9000 AND DATE 9200"),
		parseQ(t, "SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem GROUP BY l_shipmode"),
		parseQ(t, "SELECT o_orderdate, SUM(o_totalprice) FROM orders WHERE o_orderdate >= DATE 9500 GROUP BY o_orderdate"),
		parseQ(t, "SELECT SUM(lineitem.l_quantity) FROM lineitem JOIN part ON lineitem.l_partkey = part.p_partkey WHERE part.p_brand = 'Brand#23'"),
		parseQ(t, "SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'BUILDING'"),
		parseQ(t, "INSERT INTO lineitem BULK 500"),
		parseQ(t, "INSERT INTO orders BULK 200"),
		parseQ(t, "UPDATE lineitem SET l_discount = 0.02 WHERE l_shipdate BETWEEN DATE 9100 AND DATE 9400"),
		parseQ(t, "DELETE FROM orders WHERE o_orderdate < DATE 8200"),
	}
	for i, s := range stmts {
		s.Weight = float64(1 + i%3)
	}
	return &workload.Workload{Statements: stmts}
}

// TestEvaluatorMatchesFullRecompute is the differential test for the
// incremental what-if layer: across randomized base configurations and
// deltas, CostWithAdd/CostWithReplace must equal — bit for bit — a full
// WorkloadCost recompute on a fresh, cache-cold cost model. Exact float
// equality is intentional: the evaluator must never introduce summation-
// order drift, or recommendations would diverge from the full-recompute
// path.
func TestEvaluatorMatchesFullRecompute(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	fresh := NewCostModel(d) // ground truth; reset before every check
	wl := evalWorkload(t)
	pool := evalPool(t)
	rng := rand.New(rand.NewSource(17))

	fullCost := func(cfg *Configuration) float64 {
		fresh.ResetCostCache()
		return fresh.WorkloadCost(wl, cfg)
	}

	for trial := 0; trial < 40; trial++ {
		// Random base configuration: each pool member in with p=1/3.
		var members []*HypoIndex
		for _, h := range pool {
			if rng.Intn(3) == 0 {
				members = append(members, h)
			}
		}
		base := NewConfiguration(members...)
		ev := NewEvaluator(cm, wl, base, nil)
		if got, want := ev.Total(), fullCost(base); got != want {
			t.Fatalf("trial %d: base total %v != full recompute %v", trial, got, want)
		}

		// Delta 1: add a random candidate.
		add := pool[rng.Intn(len(pool))]
		next, cost := ev.CostWithAdd(add)
		if want := fullCost(next); cost != want {
			t.Fatalf("trial %d: CostWithAdd(%s) = %v, full recompute %v", trial, add.Def, cost, want)
		}
		if next.Len() != base.Len()+1 {
			t.Fatalf("trial %d: With did not extend the configuration", trial)
		}

		// Delta 2: replace a random member with a random candidate.
		if len(members) > 0 {
			old := members[rng.Intn(len(members))]
			repl := pool[rng.Intn(len(pool))]
			if old != repl {
				swapped, cost := ev.CostWithReplace(old, repl)
				if want := fullCost(swapped); cost != want {
					t.Fatalf("trial %d: CostWithReplace(%s -> %s) = %v, full recompute %v",
						trial, old.Def, repl.Def, cost, want)
				}
			}
		}

		// Advance onto the add and re-verify the rebased vector.
		ev = ev.Advance(next, add)
		if got, want := ev.Total(), fullCost(next); got != want {
			t.Fatalf("trial %d: advanced total %v != full recompute %v", trial, got, want)
		}
	}
}

// TestEvaluatorSkipsIrrelevantStatements pins the delta-evaluation property
// itself: adding an index must re-plan only the queries it can serve and the
// writes to its table.
func TestEvaluatorSkipsIrrelevantStatements(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	wl := evalWorkload(t)
	stats := &EvaluatorStats{}
	ev := NewEvaluator(cm, wl, NewConfiguration(), stats)

	hPart := build(t, &index.Def{Table: "part", KeyCols: []string{"p_brand"}})
	_, _ = ev.CostWithAdd(hPart)
	if _, delta, reused := stats.Snapshot(); delta != 1 || reused != uint64(len(wl.Statements)-1) {
		// Only the lineitem⋈part join reads "part", and its p_brand
		// equality seeks on the index.
		t.Fatalf("part index: want 1 statement re-planned / %d reused, got %d/%d",
			len(wl.Statements)-1, delta, reused)
	}

	stats2 := &EvaluatorStats{}
	ev2 := NewEvaluator(cm, wl, NewConfiguration(), stats2)
	hLine := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_quantity"}})
	_, _ = ev2.CostWithAdd(hLine)
	// The lineitem insert and update maintain it. No lineitem query can
	// use it: none has a predicate on l_quantity to seek on, and it covers
	// none of them (the l_shipdate sum and the l_shipmode grouping read
	// other columns, the join with part also reads l_partkey). The table
	// rule re-planned those three queries too, five statements in all.
	if _, delta, _ := stats2.Snapshot(); delta != 2 {
		t.Fatalf("lineitem index: want 2 statements re-planned, got %d", delta)
	}
}

// TestEvaluatorMVRelevance checks the MV scoping rule: an MV index is
// relevant to the queries it answers and to writes to every table it reads
// — its fact table and each one it joins — and to nothing else.
func TestEvaluatorMVRelevance(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	mv := &index.MVDef{
		Name:    "mv_rel",
		Fact:    "lineitem",
		Joins:   []workload.Join{{LeftTable: "lineitem", LeftCol: "l_orderkey", RightTable: "orders", RightCol: "o_orderkey"}},
		GroupBy: []workload.ColRef{{Table: "orders", Col: "o_orderpriority"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
	}
	mvIdx := build(t, &index.Def{Table: "mv_rel", KeyCols: []string{"orders_o_orderpriority"}, MV: mv})

	wl := &workload.Workload{Statements: []*workload.Statement{
		parseQ(t, "SELECT orders.o_orderpriority, SUM(lineitem.l_extendedprice) FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey GROUP BY orders.o_orderpriority"),
		parseQ(t, "SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem GROUP BY l_shipmode"), // same fact, other groups
		parseQ(t, "SELECT COUNT(*) FROM orders"),
		parseQ(t, "INSERT INTO lineitem BULK 100"),
		parseQ(t, "INSERT INTO orders BULK 100"), // re-priced, though it maintains nothing
		parseQ(t, "UPDATE orders SET o_orderpriority = '1-URGENT' WHERE o_orderdate < DATE 8400"),
		parseQ(t, "INSERT INTO customer BULK 100"),
	}}
	stats := &EvaluatorStats{}
	ev := NewEvaluator(cm, wl, NewConfiguration(), stats)
	next, cost := ev.CostWithAdd(mvIdx)
	if _, delta, reused := stats.Snapshot(); delta != 4 || reused != 3 {
		t.Fatalf("MV delta: want 4 re-planned (the joined query, the lineitem insert, the orders insert and update) / 3 reused, got %d/%d", delta, reused)
	}
	fresh := NewCostModel(d)
	if want := fresh.WorkloadCost(wl, next); cost != want {
		t.Fatalf("MV delta cost %v != full recompute %v", cost, want)
	}
	if upd := wl.Statements[5]; cm.Cost(upd, next) <= cm.Cost(upd, ev.Base()) {
		t.Fatal("an update of the view's group-by column on a joined table must pay the view's maintenance")
	}
}
