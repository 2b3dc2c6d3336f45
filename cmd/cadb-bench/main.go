// Command cadb-bench runs the advisor's key performance benchmarks —
// Recommend, the enumeration phase, the what-if cost API, and the
// size-estimation layer — and writes machine-readable JSON reports, so the
// perf trajectory can be tracked across changes without parsing
// `go test -bench` output.
//
// Usage:
//
//	cadb-bench        # writes BENCH_enumerate.json + BENCH_sizing.json +
//	                  #        BENCH_update.json + BENCH_measured.json +
//	                  #        BENCH_exec.json + BENCH_pool.json + BENCH_scan.json
//	cadb-bench -rows 20000 -out perf.json -sizing-out sizing.json -update-out update.json -measured-out measured.json -exec-out exec.json -pool-out pool.json -scan-out scan.json
//	cadb-bench -n 5 -quiet
//	cadb-bench -scale 125 -pool-rows 1000000          # million-row pool sweep
//	cadb-bench -scan-rows 1000000,10000000            # cold-scan bandwidth at 1e6 + 1e7
//	cadb-bench -pool-rows 10000000 -pool-queries 10   # out-of-core chunked pool sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cadb"
)

// result is one benchmark's measurements.
type result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     int64              `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// report is the JSON document cadb-bench writes.
type report struct {
	GeneratedAt time.Time `json:"generated_at"`
	GoVersion   string    `json:"go_version"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	FactRows    int       `json:"fact_rows"`
	Results     []result  `json:"results"`
}

func main() {
	var (
		rows        = flag.Int("rows", 8000, "fact-table row count for the benchmark database")
		out         = flag.String("out", "BENCH_enumerate.json", "output JSON path")
		sizingOut   = flag.String("sizing-out", "BENCH_sizing.json", "size-estimation benchmark output JSON path")
		updateOut   = flag.String("update-out", "BENCH_update.json", "update-mix benchmark output JSON path")
		measuredOut = flag.String("measured-out", "BENCH_measured.json", "measured-vs-estimated benchmark output JSON path")
		execOut     = flag.String("exec-out", "BENCH_exec.json", "streaming-execution benchmark output JSON path")
		poolOut     = flag.String("pool-out", "BENCH_pool.json", "buffer-pool sweep output JSON path")
		scanOut     = flag.String("scan-out", "BENCH_scan.json", "cold-scan bandwidth sweep output JSON path")
		scanRows    = flag.String("scan-rows", "", "comma-separated fact row counts for the scan sweep (empty = scaled -rows; reaches 10000000)")
		scale       = flag.Float64("scale", 1, "row-count multiplier applied to -rows (reaches 1e6 rows and beyond)")
		skew        = flag.Float64("skew", 0, "value-skew Zipf exponent for the pool-sweep database")
		poolRows    = flag.Int("pool-rows", 0, "fact rows for the pool sweep (0 = scaled -rows)")
		poolQueries = flag.Int("pool-queries", 120, "queries per pool-sweep point")
		iters       = flag.Int("n", 3, "iterations per benchmark")
		quiet       = flag.Bool("quiet", false, "suppress the human-readable summary")
	)
	flag.Parse()
	if *iters < 1 {
		fatal(fmt.Errorf("-n must be >= 1, got %d", *iters))
	}
	if *rows < 1 {
		fatal(fmt.Errorf("-rows must be >= 1, got %d", *rows))
	}
	if *scale <= 0 {
		fatal(fmt.Errorf("-scale must be > 0, got %g", *scale))
	}
	*rows = int(float64(*rows) * *scale)

	db := cadb.NewTPCH(cadb.TPCHConfig{LineitemRows: *rows, Seed: 9})
	wl := cadb.SelectIntensive(cadb.TPCHWorkload())
	newReport := func() *report {
		return &report{
			GeneratedAt: time.Now().UTC(),
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			FactRows:    *rows,
		}
	}
	rep := newReport()
	cur := rep // the report run() appends to

	// run times fn over n iterations, measuring wall clock and allocation
	// deltas. scale divides the per-iteration numbers further, for benchmarks
	// whose fn loops internally (ops = n × scale). extra carries named
	// secondary metrics (per op).
	run := func(name string, n, scale int, fn func() map[string]float64) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		extra := map[string]float64{}
		start := time.Now()
		for i := 0; i < n; i++ {
			for k, v := range fn() {
				extra[k] += v
			}
		}
		dur := time.Since(start)
		runtime.ReadMemStats(&m1)
		ops := int64(n) * int64(scale)
		res := result{
			Name:        name,
			Iterations:  n,
			NsPerOp:     dur.Nanoseconds() / ops,
			BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / ops,
			AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / ops,
		}
		for k, v := range extra {
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[k] = v / float64(n)
		}
		cur.Results = append(cur.Results, res)
		if !*quiet {
			fmt.Printf("%-36s %12d ns/op  %11d B/op  %9d allocs/op", name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
			for k, v := range res.Extra {
				fmt.Printf("  %g %s", v, k)
			}
			fmt.Println()
		}
	}

	// What-if costing over a fixed 10-index configuration, cache-cold vs
	// cache-warm (mirrors BenchmarkWhatIfCost). The costing itself is
	// microseconds-scale, so loop it inside each timed op.
	cm := cadb.NewCostModel(db)
	var hypos []*cadb.HypoIndex
	li := db.MustTable("lineitem")
	for i, c := range li.Schema.Names() {
		if i >= 10 {
			break
		}
		p, err := cadb.BuildIndex(db, (&cadb.IndexDef{Table: "lineitem", KeyCols: []string{c}}).WithMethod(cadb.RowCompression))
		if err != nil {
			fatal(err)
		}
		hypos = append(hypos, cadb.FromPhysical(p))
	}
	cfg := cadb.NewConfiguration(hypos...)
	const whatIfReps = 200
	run("WhatIfCost/uncached", *iters, whatIfReps, func() map[string]float64 {
		for i := 0; i < whatIfReps; i++ {
			cm.ResetCostCache()
			cm.WorkloadCost(wl, cfg)
		}
		return nil
	})
	cm.ResetCostCache()
	cm.WorkloadCost(wl, cfg) // warm
	run("WhatIfCost/cached", *iters, whatIfReps, func() map[string]float64 {
		for i := 0; i < whatIfReps; i++ {
			cm.WorkloadCost(wl, cfg)
		}
		return nil
	})

	// Full advisor runs, reporting the enumeration phase and the evaluator's
	// statement-reuse rate as extra metrics (mirrors BenchmarkRecommendTPCH
	// and BenchmarkEnumerate).
	for _, par := range parallelisms() {
		par := par
		run(fmt.Sprintf("RecommendTPCH/parallelism=%d", par), *iters, 1, func() map[string]float64 {
			opts := cadb.DefaultOptions(db.TotalHeapBytes() / 8)
			opts.Parallelism = par
			rec, err := cadb.Tune(db, wl, opts)
			if err != nil {
				fatal(err)
			}
			t := rec.Timing
			extra := map[string]float64{"enumerate-s/op": t.Enumerate.Seconds()}
			if planned := t.DeltaStatements + t.ReusedStatements; planned > 0 {
				extra["stmt-reuse-%"] = 100 * float64(t.ReusedStatements) / float64(planned)
			}
			return extra
		})
	}

	writeReport(rep, *out, *quiet)

	// Size-estimation layer benchmarks -> BENCH_sizing.json.
	sizRep := newReport()
	cur = sizRep

	// The oracle alone: plan + execute over a realistic target family
	// (composite structures × ROW/PAGE with column overlap, so the plan
	// mixes SAMPLED and DEDUCED nodes). Sub-phase costs come from the
	// oracle's own accounting.
	var targets []*cadb.IndexDef
	structures := []*cadb.IndexDef{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}},
		{Table: "lineitem", KeyCols: []string{"l_shipmode"}},
		{Table: "lineitem", KeyCols: []string{"l_quantity"}},
		{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_shipmode"}},
		{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_shipmode", "l_quantity"}},
		{Table: "orders", KeyCols: []string{"o_orderdate"}},
		{Table: "orders", KeyCols: []string{"o_orderdate", "o_orderpriority"}},
	}
	for _, s := range structures {
		targets = append(targets, s.WithMethod(cadb.RowCompression), s.WithMethod(cadb.PageCompression))
	}
	var acct cadb.SizeAccounting
	run("SizeOracle/prepare", *iters, 1, func() map[string]float64 {
		oracle := cadb.NewSizeOracle(db, cadb.SizeOracleConfig{Seed: 9, UseDeduction: true})
		if _, err := oracle.Prepare(targets); err != nil {
			fatal(err)
		}
		a := oracle.Accounting()
		acct.SampleBuild += a.SampleBuild
		acct.PlanSolve += a.PlanSolve
		acct.PlanExecute += a.PlanExecute
		return map[string]float64{"samplecf-calls/op": float64(a.SampleCFCalls)}
	})

	// The estimation phase inside a full advisor run: end-to-end estimateAll
	// wall time (reported below as its own phase row), SampleCF calls, and
	// the late-admission split (merged candidates deduced, not re-sampled).
	var estimateAll time.Duration
	run("SizeOracle/advisor-tune", *iters, 1, func() map[string]float64 {
		opts := cadb.DefaultOptions(db.TotalHeapBytes() / 8)
		rec, err := cadb.Tune(db, wl, opts)
		if err != nil {
			fatal(err)
		}
		t := rec.Timing
		estimateAll += t.EstimateAll
		return map[string]float64{
			"samplecf-calls/op":   float64(t.SampleCFCalls),
			"admitted-deduced/op": float64(t.AdmittedDeduced),
			"admitted-sampled/op": float64(t.AdmittedSampled),
		}
	})
	for _, phase := range []struct {
		name string
		dur  time.Duration
	}{
		{"SizeOracle/sample-build", acct.SampleBuild},
		{"SizeOracle/plan-solve", acct.PlanSolve},
		{"SizeOracle/plan-execute", acct.PlanExecute},
		{"SizeOracle/estimateAll", estimateAll},
	} {
		res := result{Name: phase.name, Iterations: *iters, NsPerOp: phase.dur.Nanoseconds() / int64(*iters)}
		sizRep.Results = append(sizRep.Results, res)
		if !*quiet {
			fmt.Printf("%-36s %12d ns/op\n", res.Name, res.NsPerOp)
		}
	}
	writeReport(sizRep, *sizingOut, *quiet)

	// Update-mix benchmarks -> BENCH_update.json: the advisor on the
	// update-capable TPC-H workload with UPDATE/DELETE weights scaled up,
	// plus the what-if costing of the update statements themselves. The
	// page-share extra metric tracks the paper's qualitative claim (heavy
	// update weight pushes the recommendation off PAGE compression).
	updRep := newReport()
	cur = updRep
	updWL := cadb.UpdateIntensive(cadb.TPCHWorkloadWithUpdates())

	cmU := cadb.NewCostModel(db)
	run("WhatIfCost/update-mix-uncached", *iters, whatIfReps, func() map[string]float64 {
		for i := 0; i < whatIfReps; i++ {
			cmU.ResetCostCache()
			cmU.WorkloadCost(updWL, cfg)
		}
		return nil
	})
	cmU.ResetCostCache()
	cmU.WorkloadCost(updWL, cfg) // warm
	run("WhatIfCost/update-mix-cached", *iters, whatIfReps, func() map[string]float64 {
		for i := 0; i < whatIfReps; i++ {
			cmU.WorkloadCost(updWL, cfg)
		}
		return nil
	})

	for _, par := range parallelisms() {
		par := par
		run(fmt.Sprintf("RecommendTPCHUpdates/parallelism=%d", par), *iters, 1, func() map[string]float64 {
			opts := cadb.DefaultOptions(db.TotalHeapBytes() / 4)
			opts.Parallelism = par
			rec, err := cadb.Tune(db, updWL, opts)
			if err != nil {
				fatal(err)
			}
			var pageBytes, totalBytes int64
			for _, h := range rec.Config.Indexes() {
				totalBytes += h.Bytes
				if h.Def.Method == cadb.PageCompression {
					pageBytes += h.Bytes
				}
			}
			extra := map[string]float64{"enumerate-s/op": rec.Timing.Enumerate.Seconds()}
			if totalBytes > 0 {
				extra["page-share-%"] = 100 * float64(pageBytes) / float64(totalBytes)
			} else {
				extra["page-share-%"] = 0
			}
			return extra
		})
	}
	writeReport(updRep, *updateOut, *quiet)

	// Measured-vs-estimated benchmarks -> BENCH_measured.json: the physical
	// segment layer. Segment builds report the size model's byte error per
	// method as extra metrics; workload execution through the segment-backed
	// store reports estimated vs counted page reads and the oracle-identity
	// verdict (1 = every statement byte-identical).
	meaRep := newReport()
	cur = meaRep
	sc := cadb.QuickExperimentScale()
	sc.LineitemRows = *rows
	sc.SalesRows = *rows

	segStructures := []*cadb.IndexDef{
		{Table: "lineitem", KeyCols: []string{"l_orderkey", "l_linenumber"}, Clustered: true},
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_quantity", "l_extendedprice"}},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}},
	}
	segWorst := func(sizes []cadb.MeasuredSize, err error) map[string]float64 {
		if err != nil {
			fatal(err)
		}
		var worst float64
		var bytes int64
		for _, s := range sizes {
			if e := s.ByteErr(); e > worst || -e > worst {
				worst = e
				if worst < 0 {
					worst = -worst
				}
			}
			bytes += s.MaterializedBytes
		}
		return map[string]float64{
			"size-err-worst-%":   100 * worst,
			"materialized-bytes": float64(bytes),
		}
	}
	// Every recommendable method, so the size-model error is measured for the
	// advisor's whole design vocabulary.
	for _, m := range []cadb.CompressionMethod{cadb.NoCompression, cadb.RowCompression,
		cadb.PageCompression, cadb.GlobalDictCompression, cadb.RLECompression} {
		m := m
		run(fmt.Sprintf("SegmentBuild/%s", m), *iters, len(segStructures), func() map[string]float64 {
			return segWorst(cadb.MeasuredSizes(db, segStructures, []cadb.CompressionMethod{m}))
		})
	}
	// A mixed per-column design: GDICT on the low-cardinality strings, RLE on
	// the clustered key run, ROW elsewhere.
	mixedDefs := []*cadb.IndexDef{
		{Table: "lineitem", KeyCols: []string{"l_orderkey", "l_linenumber"}, Clustered: true, Method: cadb.RowCompression,
			ColMethods: map[string]cadb.CompressionMethod{
				"l_orderkey":   cadb.RLECompression,
				"l_shipmode":   cadb.GlobalDictCompression,
				"l_returnflag": cadb.GlobalDictCompression,
				"l_linestatus": cadb.GlobalDictCompression,
			}},
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_quantity", "l_extendedprice"}, Method: cadb.RowCompression,
			ColMethods: map[string]cadb.CompressionMethod{
				"l_shipdate": cadb.RLECompression,
				"l_quantity": cadb.GlobalDictCompression,
			}},
	}
	run("SegmentBuild/MIXED", *iters, len(mixedDefs), func() map[string]float64 {
		return segWorst(cadb.MeasuredDesignSizes(db, mixedDefs))
	})

	for _, scen := range cadb.MeasuredScenarios(sc) {
		scen := scen
		run(fmt.Sprintf("SegmentExec/%s", scen.Name), *iters, 1, func() map[string]float64 {
			results, err := cadb.MeasuredExecution(scen.Mkdb, scen.WL, scen.Defs)
			if err != nil {
				fatal(err)
			}
			var est float64
			var counted, decoded, tuples, columns int64
			identical := 1.0
			for _, r := range results {
				est += r.EstReads
				counted += r.CountedReads
				decoded += r.PagesDecoded
				tuples += r.TuplesDecoded
				columns += r.ColumnsDecoded
				if !r.Identical {
					identical = 0
				}
			}
			extra := map[string]float64{
				"est-page-reads":     est,
				"counted-page-reads": float64(counted),
				"pages-decoded":      float64(decoded),
				"tuples-decoded":     float64(tuples),
				"columns-decoded":    float64(columns),
				"oracle-identical":   identical,
			}
			if counted > 0 {
				extra["est-over-counted"] = est / float64(counted)
			}
			return extra
		})
	}
	writeReport(meaRep, *measuredOut, *quiet)

	// Streaming-execution benchmarks -> BENCH_exec.json: the lazy
	// column-selective executor, per method, on a selective single-column
	// filter and a covering aggregate. The decode counters ride along as
	// extra metrics, so the pushdown savings (tuples/columns decoded) are
	// tracked in the same trajectory as the timings.
	execRep := newReport()
	cur = execRep
	execStatements := []struct{ name, sql string }{
		{"filter-selective", "SELECT l_extendedprice FROM lineitem WHERE l_quantity <= 5"},
		{"covering-agg", "SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_shipmode = 'AIR' GROUP BY l_shipmode"},
	}
	for _, m := range []cadb.CompressionMethod{cadb.NoCompression, cadb.RowCompression, cadb.PageCompression} {
		m := m
		execDefs := []*cadb.IndexDef{
			{Table: "lineitem", KeyCols: []string{"l_orderkey", "l_linenumber"}, Clustered: true, Method: m},
			{Table: "lineitem", KeyCols: []string{"l_shipmode"}, IncludeCols: []string{"l_extendedprice"}, Method: m},
		}
		st, err := cadb.NewSegmentStore(db, execDefs)
		if err != nil {
			fatal(err)
		}
		for _, es := range execStatements {
			wl, err := cadb.ParseWorkload(es.sql + ";")
			if err != nil {
				fatal(err)
			}
			q := wl.Statements[0].Query
			run(fmt.Sprintf("SegmentQuery/%s/%s/stream", es.name, m), *iters, 1, func() map[string]float64 {
				res, err := st.RunQuery(q)
				if err != nil {
					fatal(err)
				}
				return map[string]float64{
					"page-reads":      float64(res.IO.PageReads),
					"pages-decoded":   float64(res.IO.PagesDecoded),
					"tuples-decoded":  float64(res.IO.TuplesDecoded),
					"columns-decoded": float64(res.IO.ColumnsDecoded),
					"rows":            float64(len(res.Rows)),
				}
			})
		}
	}
	writeReport(execRep, *execOut, *quiet)

	// Buffer-pool sweep -> BENCH_pool.json: disk-backed segments behind a
	// pin/unpin pool, swept across pool size × compression method on the same
	// absolute byte budgets. One row per point; ns_per_op is wall time per
	// query of the steady-state (warmed) loop, and the extra metrics carry the
	// headline — PAGE's smaller working set turns the same pool into a higher
	// hit rate, less disk traffic and lower wall-clock than NONE.
	poolRep := newReport()
	pcfg := cadb.DefaultPoolSweepConfig()
	pcfg.FactRows = *rows
	if *poolRows > 0 {
		pcfg.FactRows = *poolRows
	}
	poolRep.FactRows = pcfg.FactRows
	pcfg.Skew = *skew
	pcfg.Queries = *poolQueries
	points, err := cadb.PoolSweep(pcfg)
	if err != nil {
		fatal(err)
	}
	for _, p := range points {
		res := result{
			Name:       fmt.Sprintf("PoolSweep/%s/frac=%.2f", p.Method, p.PoolFrac),
			Iterations: p.Queries,
			NsPerOp:    p.WallNS / int64(p.Queries),
			Extra: map[string]float64{
				"hit-rate-%":         100 * p.HitRate,
				"pool-bytes":         float64(p.PoolBytes),
				"working-set-bytes":  float64(p.WorkingSet),
				"pool-misses":        float64(p.Misses),
				"disk-bytes-read":    float64(p.BytesRead),
				"evictions":          float64(p.Evictions),
				"est-page-reads":     p.EstReads,
				"counted-page-reads": float64(p.CountedReads),
			},
		}
		if p.CountedReads > 0 {
			res.Extra["est-over-counted"] = p.EstReads / float64(p.CountedReads)
		}
		poolRep.Results = append(poolRep.Results, res)
		if !*quiet {
			fmt.Printf("%-36s %12d ns/op  hit=%5.1f%%  misses=%-7d read=%.1fMB\n",
				res.Name, res.NsPerOp, 100*p.HitRate, p.Misses, float64(p.BytesRead)/(1<<20))
		}
	}
	writeReport(poolRep, *poolOut, *quiet)

	// Cold-scan bandwidth sweep -> BENCH_scan.json: disk-backed segments built
	// out-of-core from the chunked generator, full-scanned four ways — raw
	// sequential ReadAt (the bandwidth ceiling), serial cursor, serial cursor
	// with async readahead, and a partitioned parallel scan — each through a
	// fresh pool. One row per point; the speedup-vs-serial extra metric is the
	// headline (readahead hides load latency, partitioning adds decode
	// parallelism on top).
	scanCfg := cadb.DefaultScanSweepConfig()
	scanCfg.Rows = []int{*rows}
	if *scanRows != "" {
		scanCfg.Rows = scanCfg.Rows[:0]
		for _, f := range strings.Split(*scanRows, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fatal(fmt.Errorf("bad -scan-rows entry %q", f))
			}
			scanCfg.Rows = append(scanCfg.Rows, n)
		}
	}
	scanPoints, err := cadb.ScanSweep(scanCfg)
	if err != nil {
		fatal(err)
	}
	scanRep := newReport()
	serialNS := map[string]int64{}
	for _, p := range scanPoints {
		if p.Mode == "serial" {
			serialNS[fmt.Sprintf("%s/%d", p.Method, p.Rows)] = p.WallNS
		}
	}
	for _, p := range scanPoints {
		res := result{
			Name:       fmt.Sprintf("ScanSweep/%s/rows=%d/%s", p.Method, p.Rows, p.Mode),
			Iterations: 1,
			NsPerOp:    p.WallNS,
			Extra: map[string]float64{
				"mbps":       p.MBps,
				"disk-bytes": float64(p.DiskBytes),
				"pages":      float64(p.Pages),
			},
		}
		if p.Mode != "raw-read" {
			res.Extra["tuples"] = float64(p.Tuples)
			res.Extra["pool-misses"] = float64(p.PoolMisses)
			res.Extra["pool-prefetched"] = float64(p.PoolPrefetched)
			res.Extra["prefetch-wasted"] = float64(p.PrefetchWasted)
			if s := serialNS[fmt.Sprintf("%s/%d", p.Method, p.Rows)]; s > 0 && p.WallNS > 0 {
				res.Extra["speedup-vs-serial"] = float64(s) / float64(p.WallNS)
			}
		}
		scanRep.Results = append(scanRep.Results, res)
		if !*quiet {
			fmt.Printf("%-44s %12d ns/op  %7.0f MB/s", res.Name, res.NsPerOp, p.MBps)
			if v, ok := res.Extra["speedup-vs-serial"]; ok {
				fmt.Printf("  %.2fx vs serial", v)
			}
			fmt.Println()
		}
	}
	writeReport(scanRep, *scanOut, *quiet)
}

func writeReport(rep *report, path string, quiet bool) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Printf("wrote %s\n", path)
	}
}

// parallelisms returns the worker counts to benchmark: serial plus one
// worker per CPU when the machine has more than one.
func parallelisms() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cadb-bench:", err)
	os.Exit(1)
}
