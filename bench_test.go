// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact, at reduced scale so `go test -bench=.`
// terminates in minutes), plus ablation and micro benchmarks for the design
// choices DESIGN.md calls out. Run the full-scale reports with cmd/cadb-repro.
package cadb

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"cadb/internal/compress"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/experiments"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/sampling"
	"cadb/internal/sizing"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

func benchExperiment(b *testing.B, id string) {
	sc := experiments.QuickScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, sc, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1MVCardinality(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig9SampleCFError(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkTable2ErrorStability(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkFig10DeductionError(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkTable3DeductionFits(b *testing.B)        { benchExperiment(b, "table3") }
func BenchmarkTable4GraphSearch(b *testing.B)          { benchExperiment(b, "table4") }
func BenchmarkFig11EstimationOverhead(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12TPCHSelectVariants(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13TPCHInsertVariants(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14SalesSelect(b *testing.B)           { benchExperiment(b, "fig14") }
func BenchmarkFig15SalesInsert(b *testing.B)           { benchExperiment(b, "fig15") }
func BenchmarkFig16TPCHAllFeatures(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17TPCHAllFeaturesInsert(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkMotivatingExamples(b *testing.B)         { benchExperiment(b, "motivating") }
func BenchmarkExtMethodPalettes(b *testing.B)          { benchExperiment(b, "ext-methods") }

// ---------------------------------------------------------------------------
// Micro benchmarks: the substrates

func benchDB() *Database {
	return datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 8000, Seed: 9})
}

// BenchmarkCompressMethods measures the size model's throughput per method on
// LINEITEM rows.
func BenchmarkCompressMethods(b *testing.B) {
	db := benchDB()
	li := db.MustTable("lineitem")
	for _, m := range compress.Methods {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compress.MeasureDesignSizes(li.Schema, li.Rows).SizeFor(m, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexBuild measures full physical index builds (sort + pack +
// compress), per method.
func BenchmarkIndexBuild(b *testing.B) {
	db := benchDB()
	base := &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_extendedprice", "l_discount"}}
	for _, m := range []compress.Method{compress.None, compress.Row, compress.Page} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := index.Build(db, base.WithMethod(m)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleCF measures one SampleCF invocation (fresh estimator each
// time so caching does not short-circuit the work).
func BenchmarkSampleCF(b *testing.B) {
	db := benchDB()
	d := (&index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_shipmode"}}).WithMethod(compress.Page)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est := sizing.NewEstimator(db, sampling.NewManager(db, 0.05, int64(i)))
		if _, err := est.SampleCF(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIfCost measures the optimizer's what-if API on the TPC-H
// workload under a 10-index configuration — uncached (every iteration
// compiles the statements, interns the indexes and computes every atomic
// term anew) vs cached (the memo serves them all).
func BenchmarkWhatIfCost(b *testing.B) {
	db := benchDB()
	wl := workloads.MustTPCH()
	cm := optimizer.NewCostModel(db)
	var hypos []*optimizer.HypoIndex
	li := db.MustTable("lineitem")
	for i, c := range li.Schema.Names() {
		if i >= 10 {
			break
		}
		p, err := index.Build(db, (&index.Def{Table: "lineitem", KeyCols: []string{c}}).WithMethod(compress.Row))
		if err != nil {
			b.Fatal(err)
		}
		hypos = append(hypos, optimizer.FromPhysical(p))
	}
	cfg := optimizer.NewConfiguration(hypos...)
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cm.ResetCostCache()
			cm.WorkloadCost(wl, cfg)
		}
	})
	b.Run("cached", func(b *testing.B) {
		cm.ResetCostCache()
		cm.WorkloadCost(wl, cfg) // warm
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cm.WorkloadCost(wl, cfg)
		}
	})
}

// ---------------------------------------------------------------------------
// Enumeration parallelism: the tentpole speedup benchmarks. Each sub-bench
// runs the full advisor at a fixed Parallelism; the recommendations are
// asserted byte-identical across settings, so the only difference is wall
// time.

func benchRecommendAt(b *testing.B, db *Database, wl *workload.Workload, par int, want *string) {
	b.Helper()
	budget := db.TotalHeapBytes() / 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions(budget)
		opts.Parallelism = par
		rec, err := core.New(db, wl, opts).Recommend()
		if err != nil {
			b.Fatal(err)
		}
		got := fmt.Sprintf("%v|%v|%d|%s", rec.BaseCost, rec.TotalCost, rec.SizeBytes, rec.Config)
		if *want == "" {
			*want = got
		} else if got != *want {
			b.Fatalf("parallelism=%d recommendation diverged:\n%s\nwant:\n%s", par, got, *want)
		}
	}
}

func benchRecommendParallelism(b *testing.B, db *Database, wl *workload.Workload) {
	var want string
	b.Run("parallelism=1", func(b *testing.B) { benchRecommendAt(b, db, wl, 1, &want) })
	b.Run(fmt.Sprintf("parallelism=%d", runtime.NumCPU()), func(b *testing.B) {
		benchRecommendAt(b, db, wl, runtime.NumCPU(), &want)
	})
}

// BenchmarkRecommendTPCH measures the full DTAc advisor on the TPC-H
// workload, serial vs one worker per CPU.
func BenchmarkRecommendTPCH(b *testing.B) {
	benchRecommendParallelism(b, benchDB(), workloads.SelectIntensive(workloads.MustTPCH()))
}

// BenchmarkRecommendSales measures the full DTAc advisor on the Sales star
// schema, serial vs one worker per CPU.
func BenchmarkRecommendSales(b *testing.B) {
	db := datagen.NewSales(datagen.SalesConfig{FactRows: 8000, Zipf: 0.8, Seed: 7})
	benchRecommendParallelism(b, db, workloads.MustSales(7))
}

// BenchmarkTuneColdTPCH is the tpch-select loop's tune: each iteration tunes
// a freshly generated 40 000-row TPC-H database (datagen and the heap sizes
// the budget is cut from sit outside the timer) at Parallelism 1, so every
// column statistic and table sample is built inside it. stats_ms/op and
// sample_build_ms/op are the runs' Timing.Stats and Timing.SampleBuild.
func BenchmarkTuneColdTPCH(b *testing.B) {
	wl := workloads.SelectIntensive(workloads.MustTPCH())
	var stats, sample float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 40000, Seed: 1})
		opts := core.DefaultOptions(db.TotalHeapBytes() / 4)
		opts.Parallelism = 1
		b.StartTimer()
		rec, err := core.New(db, wl, opts).Recommend()
		if err != nil {
			b.Fatal(err)
		}
		stats += float64(rec.Timing.Stats) / 1e6
		sample += float64(rec.Timing.SampleBuild) / 1e6
	}
	b.ReportMetric(stats/float64(b.N), "stats_ms/op")
	b.ReportMetric(sample/float64(b.N), "sample_build_ms/op")
}

// BenchmarkTuneColdSalesWide is the sales-wide loop's tune: each iteration
// tunes a freshly generated 8 000-row Sales database (datagen outside the
// timer) with MV and partial candidates at Parallelism 2, so enumeration and
// the per-column refinement dominate. refine_ms/op and enumerate_ms/op are
// the runs' Timing.Refine and Timing.Enumerate.
func BenchmarkTuneColdSalesWide(b *testing.B) {
	wl := workloads.SelectIntensive(workloads.MustSales(1))
	var refine, enumerate float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := datagen.NewSales(datagen.SalesConfig{FactRows: 8000, Zipf: 0.8, Seed: 1})
		opts := core.DefaultOptions(db.TotalHeapBytes() / 4)
		opts.EnableMV, opts.EnablePartial = true, true
		opts.Parallelism = 2
		b.StartTimer()
		rec, err := core.New(db, wl, opts).Recommend()
		if err != nil {
			b.Fatal(err)
		}
		refine += float64(rec.Timing.Refine) / 1e6
		enumerate += float64(rec.Timing.Enumerate) / 1e6
	}
	b.ReportMetric(refine/float64(b.N), "refine_ms/op")
	b.ReportMetric(enumerate/float64(b.N), "enumerate_ms/op")
}

// BenchmarkEnumerate targets the greedy enumeration with compression,
// skyline and backtracking on — the paper's full DTAc search. Hoisting
// candidate generation and size estimation out of the timed loop is
// impractical, so each iteration runs the full advisor and reports the
// enumeration phase alone as enumerate-s/op.
func BenchmarkEnumerate(b *testing.B) {
	db := benchDB()
	wl := workloads.SelectIntensive(workloads.MustTPCH())
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			var enum float64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions(db.TotalHeapBytes() / 8)
				opts.Parallelism = par
				rec, err := core.New(db, wl, opts).Recommend()
				if err != nil {
					b.Fatal(err)
				}
				enum += rec.Timing.Enumerate.Seconds()
			}
			b.ReportMetric(enum/float64(b.N), "enumerate-s/op")
		})
	}
}

// BenchmarkGraphSearchGreedy measures the greedy estimation planner over
// ~300 targets (the paper: "finishes within a second for more than 300
// indexes").
func BenchmarkGraphSearchGreedy(b *testing.B) {
	db := benchDB()
	est := sizing.NewEstimator(db, sampling.NewManager(db, 0.05, 1))
	var targets []*index.Def
	for _, t := range db.Tables() {
		if !t.Fact {
			continue
		}
		cols := t.Schema.Names()
		for i := range cols {
			for j := range cols {
				if i != j {
					targets = append(targets, (&index.Def{Table: t.Name, KeyCols: []string{cols[i], cols[j]}}).WithMethod(compress.Row))
				}
			}
		}
	}
	b.Logf("targets: %d", len(targets))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sizing.Greedy(est, targets, nil, 0.5, 0.9, 0.05)
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks: advisor feature switches (reported as improvement in
// custom metrics rather than wall time alone).

func benchAdvisor(b *testing.B, mutate func(*core.Options)) {
	db := benchDB()
	wl := workloads.SelectIntensive(workloads.MustTPCH())
	budget := db.TotalHeapBytes() / 8 // tight budget: where features matter
	b.ReportAllocs()
	var imp float64
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions(budget)
		mutate(&opts)
		rec, err := core.New(db, wl, opts).Recommend()
		if err != nil {
			b.Fatal(err)
		}
		imp = rec.Improvement
	}
	b.ReportMetric(imp, "improvement%")
}

func BenchmarkAblationFullDTAc(b *testing.B) {
	benchAdvisor(b, func(o *core.Options) {})
}

func BenchmarkAblationNoSkyline(b *testing.B) {
	benchAdvisor(b, func(o *core.Options) { o.Skyline = false })
}

func BenchmarkAblationNoBacktrack(b *testing.B) {
	benchAdvisor(b, func(o *core.Options) { o.Backtrack = false })
}

func BenchmarkAblationNoDeduction(b *testing.B) {
	benchAdvisor(b, func(o *core.Options) { o.UseDeduction = false })
}

func BenchmarkAblationNoCompression(b *testing.B) {
	benchAdvisor(b, func(o *core.Options) {
		o.EnableCompression = false
		o.Skyline = false
		o.Backtrack = false
	})
}

func BenchmarkAblationStaged(b *testing.B) {
	benchAdvisor(b, func(o *core.Options) { o.Staged = true })
}

// ---------------------------------------------------------------------------
// The read path: one pass of a workload's queries on the tuned, deployed store

// benchDesign tunes for the workload the way the loop benchmark does and
// returns the recommendation, its structures and the workload's statements
// the store runs (every one but INSERTs). views turns on materialized-view
// and partial-index candidates, as sales-wide does.
func benchDesign(b testing.TB, db *Database, wl *workload.Workload, views bool) (*Recommendation, []*IndexDef, []*workload.Statement) {
	opts := DefaultOptions(db.TotalHeapBytes() / 4)
	opts.Parallelism = 1
	opts.EnableMV, opts.EnablePartial = views, views
	rec, err := Tune(db, wl, opts)
	if err != nil {
		b.Fatal(err)
	}
	var defs []*IndexDef
	for _, h := range rec.Config.Indexes() {
		defs = append(defs, h.Def)
	}
	var stmts []*workload.Statement
	for _, s := range wl.Statements {
		if s.Insert == nil {
			stmts = append(stmts, s)
		}
	}
	return rec, defs, stmts
}

// runBenchStatement runs one statement on the store.
func runBenchStatement(b testing.TB, st *SegmentStore, s *workload.Statement) {
	var err error
	switch {
	case s.Query != nil:
		_, err = st.RunQuery(s.Query)
	case s.Update != nil:
		_, _, err = st.RunUpdate(s.Update)
	case s.Delete != nil:
		_, _, err = st.RunDelete(s.Delete)
	}
	if err != nil {
		b.Fatalf("%s: %v", s.Label, err)
	}
}

// openBenchStore opens a store over the design; spill puts it behind a pool
// a tenth of the design's bytes with readahead on, as the sales-disk workload
// does.
func openBenchStore(b testing.TB, db *Database, rec *Recommendation, defs []*IndexDef, spill bool, dir string) *SegmentStore {
	st, err := NewSegmentStore(db, defs)
	if err != nil {
		b.Fatal(err)
	}
	if spill {
		st.SetDiskBacked(dir, NewBufferPool((db.TotalHeapBytes()+rec.SizeBytes)/10))
		st.SetPrefetch(32, 2)
	}
	return st
}

// benchStorePass tunes for the workload, deploys the recommendation (the
// first statement deploys the whole design), runs one warm pass and then
// times whole passes — every statement in workload order, the loop
// benchmark's pass_s with B/op beside it. Tune, deploy and the warm pass sit
// outside the timer, so `-cpuprofile` is mostly a profile of the passes (the
// one-off tune is in it too).
func benchStorePass(b *testing.B, db *Database, wl *workload.Workload, spill, views bool) {
	rec, defs, stmts := benchDesign(b, db, wl, views)
	st := openBenchStore(b, db, rec, defs, spill, b.TempDir())
	defer st.Close()
	pass := func() {
		for _, s := range stmts {
			runBenchStatement(b, st, s)
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// BenchmarkStorePassTPCH is one tpch-select pass (40 000 lineitem rows, in
// memory).
func BenchmarkStorePassTPCH(b *testing.B) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 40000, Seed: 1})
	benchStorePass(b, db, workloads.SelectIntensive(workloads.MustTPCH()), false, false)
}

// BenchmarkStorePassTPCHUpdate is one steady tpch-update pass (10 000
// lineitem rows, in memory): its queries and its UPDATEs and DELETEs in
// workload order, on a store the earlier passes have written to. From the
// second pass on the DELETEs match nothing, and the UPDATEs rewrite the same
// rows with the values they hold.
func BenchmarkStorePassTPCHUpdate(b *testing.B) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 10000, Seed: 1})
	benchStorePass(b, db, workloads.UpdateIntensive(workloads.MustTPCHWithUpdates()), false, false)
}

// BenchmarkStorePassSales is one sales-disk pass (30 000 fact rows, spilled).
func BenchmarkStorePassSales(b *testing.B) {
	db := datagen.NewSales(datagen.SalesConfig{FactRows: 30000, Zipf: 0.8, Seed: 1})
	benchStorePass(b, db, workloads.SelectIntensive(workloads.MustSales(1)), true, false)
}

// BenchmarkStorePassSalesWide is one steady sales-wide pass (8 000 fact
// rows, in memory) over a design tuned with view and partial-index
// candidates: most statements read a materialized view.
func BenchmarkStorePassSalesWide(b *testing.B) {
	db := datagen.NewSales(datagen.SalesConfig{FactRows: 8000, Zipf: 0.8, Seed: 1})
	benchStorePass(b, db, workloads.SelectIntensive(workloads.MustSales(1)), false, true)
}

// BenchmarkStoreQueryTPCH times the four decode-heavy tpch-select statements
// one at a time (40 000 lineitem rows, in memory), each a sub-benchmark
// reporting the tuples its decodes materialize. Tune, deploy and one warm pass
// sit outside the timer.
func BenchmarkStoreQueryTPCH(b *testing.B) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 40000, Seed: 1})
	rec, defs, stmts := benchDesign(b, db, workloads.SelectIntensive(workloads.MustTPCH()), false)
	st := openBenchStore(b, db, rec, defs, false, b.TempDir())
	defer st.Close()
	byLabel := make(map[string]*workload.Statement, len(stmts))
	for _, s := range stmts {
		runBenchStatement(b, st, s)
		byLabel[s.Label] = s
	}
	for _, label := range []string{"Q1", "Q3", "Q8", "Q9"} {
		s := byLabel[label]
		if s == nil || s.Query == nil {
			b.Fatalf("tpch-select has no query %s", label)
		}
		b.Run(label, func(b *testing.B) {
			var tuples int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := st.RunQuery(s.Query)
				if err != nil {
					b.Fatalf("%s: %v", label, err)
				}
				tuples += res.IO.TuplesDecoded
			}
			b.ReportMetric(float64(tuples)/float64(b.N), "tuples/op")
		})
	}
}

// benchStoreDeploy times a deploy: NewSegmentStore plus the first statement,
// which builds (and with spill, spills) every structure of the design. Each
// iteration deploys into a freshly generated database; datagen, the
// statistics tuning has built by the time the loop benchmark deploys, and the
// one tune sit outside the timer, so `-cpuprofile` is a profile of deploys.
// built_MB/op is the payload deploy encoded, every structure of the design.
func benchStoreDeploy(b *testing.B, gen func() *Database, wl *workload.Workload, spill, views bool) {
	rec, defs, stmts := benchDesign(b, gen(), wl, views)
	var built int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := gen()
		// The loop benchmark's tune has cached both: the heap sizes, and the
		// statistics deploy snapshots for its planner, sorted for every
		// column its plans read (here every column, a superset).
		db.TotalHeapBytes()
		for _, t := range db.Tables() {
			for _, c := range t.Schema.Names() {
				t.Stats().Col(c)
			}
		}
		dir := b.TempDir()
		b.StartTimer()
		st := openBenchStore(b, db, rec, defs, spill, dir)
		runBenchStatement(b, st, stmts[0])
		b.StopTimer()
		built = st.DiskBytes()
		st.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(built)/(1<<20), "built_MB/op")
}

// BenchmarkStoreDeployTPCH is a tpch-select deploy (40 000 lineitem rows, in
// memory).
func BenchmarkStoreDeployTPCH(b *testing.B) {
	benchStoreDeploy(b, func() *Database {
		return datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 40000, Seed: 1})
	}, workloads.SelectIntensive(workloads.MustTPCH()), false, false)
}

// BenchmarkStoreDeploySales is a sales-disk deploy (30 000 fact rows,
// spilled).
func BenchmarkStoreDeploySales(b *testing.B) {
	benchStoreDeploy(b, func() *Database {
		return datagen.NewSales(datagen.SalesConfig{FactRows: 30000, Zipf: 0.8, Seed: 1})
	}, workloads.SelectIntensive(workloads.MustSales(1)), true, false)
}

// BenchmarkStoreDeploySalesWide is a sales-wide deploy (8 000 fact rows, in
// memory): the tables, the indexes and every materialized view of the
// design, each view one streaming pass over the fact rows.
func BenchmarkStoreDeploySalesWide(b *testing.B) {
	benchStoreDeploy(b, func() *Database {
		return datagen.NewSales(datagen.SalesConfig{FactRows: 8000, Zipf: 0.8, Seed: 1})
	}, workloads.SelectIntensive(workloads.MustSales(1)), false, true)
}
