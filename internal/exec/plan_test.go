package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// tunedStore tunes the workload on the database as the loop benchmark does
// (a quarter of the heap as budget, one worker, mv turning on MV and partial
// candidates), and returns a store over the recommendation and the
// statements the store runs.
func tunedStore(t *testing.T, db *catalog.Database, wl *workload.Workload, mv bool) (*Store, []*workload.Statement) {
	t.Helper()
	opts := core.DefaultOptions(db.TotalHeapBytes() / 4)
	opts.Parallelism = 1
	opts.EnableMV, opts.EnablePartial = mv, mv
	rec, err := core.New(db, wl, opts).Recommend()
	if err != nil {
		t.Fatal(err)
	}
	var defs []*index.Def
	for _, h := range rec.Config.Indexes() {
		defs = append(defs, h.Def)
	}
	st, err := NewStore(db, defs)
	if err != nil {
		t.Fatal(err)
	}
	var stmts []*workload.Statement
	for _, s := range wl.Statements {
		if s.Insert == nil {
			stmts = append(stmts, s)
		}
	}
	return st, stmts
}

// runStatement runs one statement on the store and returns its counted I/O
// and the access paths it took. A write's paths are its locate's, run once
// more on a run state of its own before the write itself (a read-only,
// deterministic pass over the same path).
func runStatement(t *testing.T, st *Store, s *workload.Statement) (IOStats, []string) {
	t.Helper()
	if s.Query != nil {
		res, err := st.RunQuery(s.Query)
		if err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
		return res.IO, res.Paths
	}
	rs := st.newRunState()
	if err := st.locate(rs, *s); err != nil {
		t.Fatalf("%s: %v", s.Label, err)
	}
	var io IOStats
	var err error
	if s.Update != nil {
		_, io, err = st.RunUpdate(s.Update)
	} else {
		_, io, err = st.RunDelete(s.Delete)
	}
	if err != nil {
		t.Fatalf("%s: %v", s.Label, err)
	}
	if io != rs.io {
		t.Fatalf("%s: the write located with %+v, its locate alone with %+v", s.Label, io, rs.io)
	}
	return io, rs.paths
}

// TestStorePageReadsMatchPlan is the fence between the cost model and the
// store that runs its plans. On the four loop-benchmark workloads — the TPC-H
// select and update mixes and the Sales select mix, with and without MV and
// partial candidates — tuned at the benchmark's scales and run in workload
// order, every statement takes its plan's access path on every table, kind
// for kind (a path whose structure lacks a column the statement reads is the
// plan's non-covering seek, "+lookup"), and its counted page reads are within
// 2 + 25 % of the plan's estimate. The plan is the store's: over the
// structures it built, materialized views included, so without the partial
// indexes it does not build.
//
// The band, per path kind:
//   - heap-scan, clustered-scan, index-scan, mv-scan: the estimate is the
//     structure's built payload in pages, the count its physical pages; they
//     differ only by page-fill slack.
//   - clustered-seek, index-seek, mv-seek: the estimate is a tree descent
//     (two page reads under 256 leaf pages) plus the histogram's share of the
//     leaf pages; the count is the seek's page range, which includes up to
//     one edge page each side and no descent. The 2 absorbs the descent and
//     the edges, the 25 % the histogram. A view's residual predicates are
//     estimated from its base columns' histograms.
//   - index-seek+lookup: each estimated lookup is one page read, while the
//     store reads each heap page once for all the RIDs on it. None of these
//     workloads' plans takes one; the band would have to widen for one that
//     looks up many rows per page.
//
// Writes run against the frozen plan while later statements see rebuilt,
// smaller structures; the band holds through them.
func TestStorePageReadsMatchPlan(t *testing.T) {
	tpch := func(rows int) *catalog.Database {
		return datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: rows, Seed: 1})
	}
	sales := func(rows int) *catalog.Database {
		return datagen.NewSales(datagen.SalesConfig{FactRows: rows, Zipf: 0.8, Seed: 1})
	}
	for _, c := range []struct {
		name string
		db   *catalog.Database
		wl   *workload.Workload
		mv   bool
	}{
		{"tpch-select", tpch(40000), workloads.SelectIntensive(workloads.MustTPCH()), false},
		{"tpch-update", tpch(10000), workloads.UpdateIntensive(workloads.MustTPCHWithUpdates()), false},
		{"sales-disk", sales(30000), workloads.SelectIntensive(workloads.MustSales(1)), false},
		{"sales-wide", sales(8000), workloads.SelectIntensive(workloads.MustSales(1)), true},
	} {
		st, stmts := tunedStore(t, c.db, c.wl, c.mv)
		var est, counted float64
		for _, s := range stmts {
			io, paths := runStatement(t, st, s)
			plan, err := st.planFor(*s)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s %s", c.name, s.Label)
			checkPathKinds(t, label, plan, paths)
			e, n := plan.EstimatedPageReads(), float64(io.PageReads)
			if math.Abs(n-e) > 2+0.25*e {
				t.Errorf("%s: counted %v page reads, the plan estimates %v (%v)", label, n, e, paths)
			}
			est, counted = est+e, counted+n
		}
		t.Logf("%s: %d statements, %v page reads estimated, %v counted", c.name, len(stmts), est, counted)
	}
}

// checkPathKinds checks that the store's paths, one per table access, are
// the plan's access paths: the same kind on each table, "+lookup" exactly
// where the plan costs RID lookups.
func checkPathKinds(t *testing.T, label string, plan *optimizer.Plan, paths []string) {
	t.Helper()
	want := make(map[string]string)
	for _, ap := range plan.Paths {
		table := strings.ToLower(ap.Table)
		if _, seen := want[table]; seen || strings.HasPrefix(ap.Kind, "base-") || ap.Kind == "index-maintain" {
			continue // a write's base rewrite and maintenance read nothing
		}
		want[table] = ap.Kind
		if ap.Lookups > 0 {
			want[table] += "+lookup"
		}
	}
	if len(paths) != len(want) {
		t.Errorf("%s: %d paths %v for the plan's %d tables (%v)", label, len(paths), paths, len(want), plan)
	}
	for _, p := range paths {
		f := strings.Fields(p)
		if len(f) < 2 || want[strings.ToLower(f[1])] != f[0] {
			t.Errorf("%s: path %q, the plan takes %v", label, p, plan)
		}
	}
}

// TestStorePlansOnDeployStats: the store plans on the statistics deploy
// found. After an UPDATE and a DELETE have invalidated the catalog's
// statistics, planning and running new queries on the written table leaves
// them unbuilt; and repeated passes of a workload plan each statement once.
func TestStorePlansOnDeployStats(t *testing.T) {
	db := freshDB()
	st, err := NewStore(db, tpchDesign())
	if err != nil {
		t.Fatal(err)
	}
	li := db.MustTable("lineitem")
	for _, sql := range []string{
		"UPDATE lineitem SET l_discount = 0.5 WHERE l_quantity <= 5",
		"DELETE FROM lineitem WHERE l_shipdate < DATE 8400",
	} {
		s := stmt(t, sql)
		var n int64
		if s.Update != nil {
			n, _, err = st.RunUpdate(s.Update)
		} else {
			n, _, err = st.RunDelete(s.Delete)
		}
		if err != nil || n == 0 {
			t.Fatalf("%s: %d rows, %v", sql, n, err)
		}
		if li.HasStats() {
			t.Fatalf("%s left the catalog's statistics built", sql)
		}
		for _, sql := range []string{
			"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity = 7",
			"SELECT l_shipmode, COUNT(*) FROM lineitem WHERE l_shipdate >= DATE 9000 GROUP BY l_shipmode",
			"DELETE FROM lineitem WHERE l_quantity > 1000",
		} {
			if runStatement(t, st, stmt(t, sql)); li.HasStats() {
				t.Fatalf("planning %q rebuilt the catalog's statistics", sql)
			}
		}
	}

	wl := workloads.MustTPCHWithUpdates()
	memo := func() (int, uint64) {
		_, misses := st.cm.CostCacheStats()
		return len(st.plans), misses
	}
	var plans [3]int
	var misses [3]uint64
	for pass := range plans {
		for _, s := range wl.Statements {
			if s.Insert == nil {
				runStatement(t, st, s)
			}
		}
		plans[pass], misses[pass] = memo()
	}
	if plans[1] != plans[0] || plans[2] != plans[0] || misses[1] != misses[0] || misses[2] != misses[0] {
		t.Fatalf("plan memo over three passes: %v plans, %v cost-model misses; want no growth after the first", plans, misses)
	}
}
