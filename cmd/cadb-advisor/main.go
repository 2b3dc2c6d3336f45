// Command cadb-advisor runs the compression-aware physical design advisor
// (DTAc) or its compression-blind baseline (DTA) over a generated database
// and workload, printing the recommended configuration and its estimated
// improvement.
//
// Usage:
//
//	cadb-advisor -db tpch -budget 0.25
//	cadb-advisor -db sales -budget 0.1 -mix insert -baseline
//	cadb-advisor -db tpch -budget 0.25 -mix update
//	cadb-advisor -db tpch -budget 0.5 -features all -verbose
//	cadb-advisor -db tpcds -workload my_queries.sql
//	cadb-advisor -db sales -rows 8000 -features all -cpuprofile tune.prof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"cadb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and exit code, so flag handling is
// testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cadb-advisor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbName   = fs.String("db", "tpch", "database: tpch | sales | tpcds")
		rows     = fs.Int("rows", 20000, "fact-table row count")
		zipf     = fs.Float64("zipf", 0, "value skew Z (tpch only)")
		seed     = fs.Int64("seed", 42, "generator seed")
		budget   = fs.Float64("budget", 0.25, "storage budget as a fraction of the heap-only database size")
		mix      = fs.String("mix", "select", "workload mix: select | insert | update | balanced")
		baseline = fs.Bool("baseline", false, "run compression-blind DTA instead of DTAc")
		staged   = fs.Bool("staged", false, "run the naive staged (select-then-compress) baseline")
		features = fs.String("features", "simple", "candidate features: simple | all (adds partial indexes and MVs)")
		wlFile   = fs.String("workload", "", "optional SQL workload file (overrides the built-in workload)")
		par      = fs.Int("parallelism", 0, "what-if costing workers (0 = one per CPU; results are identical at any setting)")
		verbose  = fs.Bool("verbose", false, "print per-phase timing and the estimation plan")
		poolMB   = fs.Float64("pool", 0, "buffer pool size in MB for the -verbose per-statement replay (0 = in-memory segments); spills segments to a temp dir and reports pool hit rate and bytes read")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the tuning run (and nothing else) to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile, taken when the tuning run ends, to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var db *cadb.Database
	var wl *cadb.Workload
	switch *dbName {
	case "tpch":
		db = cadb.NewTPCH(cadb.TPCHConfig{LineitemRows: *rows, Zipf: *zipf, Seed: *seed})
		if *mix == "update" {
			wl = cadb.TPCHWorkloadWithUpdates()
		} else {
			wl = cadb.TPCHWorkload()
		}
	case "sales":
		db = cadb.NewSales(cadb.SalesConfig{FactRows: *rows, Zipf: 0.8, Seed: *seed})
		if *mix == "update" {
			wl = cadb.SalesWorkloadWithUpdates(*seed)
		} else {
			wl = cadb.SalesWorkload(*seed)
		}
	case "tpcds":
		db = cadb.NewTPCDS(cadb.TPCDSConfig{StoreSalesRows: *rows, Seed: *seed})
		// tpcds ships no built-in workload: only warn (and bail) when the
		// user did not pass one.
		if *wlFile == "" {
			fmt.Fprintln(stderr, "cadb-advisor: tpcds has no built-in workload; pass -workload")
			return 1
		}
	default:
		fmt.Fprintf(stderr, "cadb-advisor: unknown db %q\n", *dbName)
		return 1
	}
	if *wlFile != "" {
		text, err := os.ReadFile(*wlFile)
		if err != nil {
			fmt.Fprintln(stderr, "cadb-advisor:", err)
			return 1
		}
		wl, err = cadb.ParseWorkload(string(text))
		if err != nil {
			fmt.Fprintln(stderr, "cadb-advisor:", err)
			return 1
		}
	}
	switch *mix {
	case "select":
		wl = cadb.SelectIntensive(wl)
	case "insert":
		wl = cadb.InsertIntensive(wl)
	case "update":
		wl = cadb.UpdateIntensive(wl)
	case "balanced":
	default:
		fmt.Fprintf(stderr, "cadb-advisor: unknown mix %q\n", *mix)
		return 1
	}

	heap := db.TotalHeapBytes()
	budgetBytes := int64(*budget * float64(heap))
	var opts cadb.Options
	if *baseline {
		opts = cadb.DTAOptions(budgetBytes)
	} else {
		opts = cadb.DefaultOptions(budgetBytes)
	}
	opts.Staged = *staged
	if *features == "all" {
		opts.EnablePartial = true
		opts.EnableMV = true
	}
	opts.Seed = *seed
	opts.Parallelism = *par

	fmt.Fprintf(stdout, "database %s: %d tables, %.1f MB heap; budget %.1f MB (%.0f%%)\n",
		*dbName, len(db.Tables()), mb(heap), mb(budgetBytes), 100**budget)
	fmt.Fprintf(stdout, "workload: %d statements (%d queries, %d updates/deletes), mix=%s, tool=%s\n",
		len(wl.Statements), len(wl.Queries()), len(wl.Updates()), *mix, toolName(*baseline, *staged))

	start := time.Now()
	var rec *cadb.Recommendation
	err := profiled(*cpuProf, *memProf, func() (err error) {
		rec, err = cadb.Tune(db, wl, opts)
		return err
	})
	if err != nil {
		fmt.Fprintln(stderr, "cadb-advisor:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nrecommendation (%v, %d candidates considered):\n", time.Since(start).Round(time.Millisecond), rec.CandidateCount)
	fmt.Fprint(stdout, rec)
	fmt.Fprintf(stdout, "net storage: %.1f MB of %.1f MB budget\n", mb(rec.SizeBytes), mb(budgetBytes))

	if *verbose {
		t := rec.Timing
		fmt.Fprintf(stdout, "\ntiming: total=%v stats=%v (%d columns sorted) candgen=%v estimate=%v (samples=%v plan-solve=%v plan-exec=%v table-est=%v partial-est=%v mv-est=%v) enum=%v (refine=%v, %d per-column changes)\n",
			t.Total.Round(time.Millisecond), t.Stats.Round(time.Millisecond), t.StatsColumns, t.CandidateGen.Round(time.Millisecond),
			t.EstimateAll.Round(time.Millisecond),
			t.SampleBuild.Round(time.Millisecond), t.PlanSolve.Round(time.Millisecond),
			t.PlanExecute.Round(time.Millisecond), t.TableEstimate.Round(time.Millisecond),
			t.PartialEstim.Round(time.Millisecond), t.MVEstimate.Round(time.Millisecond),
			t.Enumerate.Round(time.Millisecond), t.Refine.Round(time.Millisecond), t.Refinements)
		fmt.Fprintf(stdout, "size oracle: %d SampleCF calls; late admissions %d deduced / %d sampled; %d estimation errors tolerated\n",
			t.SampleCFCalls, t.AdmittedDeduced, t.AdmittedSampled, t.EstimationErrors)
		if planned := t.DeltaStatements + t.ReusedStatements; planned > 0 {
			fmt.Fprintf(stdout, "what-if: %d delta evaluations; %d statement costs re-planned, %d reused from base vectors (%.1f%% skipped); atomic terms %d memo hits / %d computed\n",
				t.WhatIfEvaluations, t.DeltaStatements, t.ReusedStatements,
				100*float64(t.ReusedStatements)/float64(planned),
				t.CostCacheHits, t.CostCacheMisses)
		}
		if rec.EstimationPlan != nil {
			fmt.Fprintf(stdout, "\nestimation plan:\n%s", rec.EstimationPlan.Describe())
		}
		printColumnDesigns(stdout, db, rec)
		printStatementIO(stdout, stderr, db, wl, rec, *poolMB)
	}
	return 0
}

// profiled runs fn under the requested profiles: a CPU profile covering fn
// alone, and the allocation profile (every allocation since process start,
// sampled) as it stands when fn returns. Empty paths disable each.
func profiled(cpuPath, memPath string, fn func() error) error {
	stopCPU := func() error { return nil }
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // nothing written; the start error is the one to report
			return err
		}
		stopCPU = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	err := fn()
	if cerr := stopCPU(); err == nil {
		err = cerr
	}
	if err != nil || memPath == "" {
		return err
	}
	f, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC() // flush recent allocations into the profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// printColumnDesigns prints each recommended structure's per-column
// compression methods: every table column for a clustered index, the leaf
// (key + include) columns otherwise. Structures whose refinement sweep kept a
// uniform method show the same method on every column; mixed designs are
// flagged so the overridden columns stand out.
func printColumnDesigns(stdout io.Writer, db *cadb.Database, rec *cadb.Recommendation) {
	fmt.Fprintf(stdout, "\nper-column compression designs:\n")
	members := append([]*cadb.HypoIndex(nil), rec.Config.Indexes()...) // Indexes() is shared
	sort.Slice(members, func(i, j int) bool { return members[i].ID() < members[j].ID() })
	for _, h := range members {
		d := h.Def
		var cols []string
		if d.Clustered && d.MV == nil {
			if t := db.Table(d.Table); t != nil {
				cols = t.Schema.Names()
			}
		}
		if cols == nil {
			cols = d.Columns()
		}
		parts := make([]string, 0, len(cols))
		for _, c := range cols {
			if strings.EqualFold(c, "__rid") {
				continue
			}
			parts = append(parts, fmt.Sprintf("%s=%s", c, d.MethodFor(c)))
		}
		marker := ""
		if d.IsMixed() {
			marker = " [mixed]"
		}
		fmt.Fprintf(stdout, "  %s%s: %s\n", d.StructureID(), marker, strings.Join(parts, " "))
	}
}

// printStatementIO materializes the recommended design and re-runs the
// workload's queries through the segment-backed streaming executor, printing
// each statement's counted I/O (page reads plus the pages/tuples/columns the
// pipeline actually decoded). With poolMB > 0 the segments are spilled to a
// temp dir and served through a buffer pool of that size, and each line adds
// the statement's pool hit rate and bytes read from disk. Write statements
// are skipped: replaying them would mutate the database the recommendation
// was tuned for.
func printStatementIO(stdout, stderr io.Writer, db *cadb.Database, wl *cadb.Workload, rec *cadb.Recommendation, poolMB float64) {
	var defs []*cadb.IndexDef
	for _, h := range rec.Config.Indexes() {
		defs = append(defs, h.Def)
	}
	st, err := cadb.NewSegmentStore(db, defs)
	if err != nil {
		fmt.Fprintln(stderr, "cadb-advisor: per-statement I/O unavailable:", err)
		return
	}
	pooled := poolMB > 0
	if pooled {
		dir, err := os.MkdirTemp("", "cadb-advisor-pool-*")
		if err != nil {
			fmt.Fprintln(stderr, "cadb-advisor: per-statement I/O unavailable:", err)
			return
		}
		defer os.RemoveAll(dir)
		pool := cadb.NewBufferPool(int64(poolMB * (1 << 20)))
		st.SetDiskBacked(dir, pool)
		defer st.Close()
		fmt.Fprintf(stdout, "\nper-statement I/O under the recommended design (queries only; disk-backed, %.1f MB pool):\n", poolMB)
		fmt.Fprintf(stdout, "  %-32s %8s %8s %8s %10s %8s %8s %10s\n", "statement", "rows", "reads", "pages", "tuples", "cols", "hit%", "MB-read")
	} else {
		fmt.Fprintf(stdout, "\nper-statement I/O under the recommended design (queries only):\n")
		fmt.Fprintf(stdout, "  %-32s %8s %8s %8s %10s %8s\n", "statement", "rows", "reads", "pages", "tuples", "cols")
	}
	for _, s := range wl.Statements {
		if s.Query == nil {
			continue
		}
		res, err := st.RunQuery(s.Query)
		if err != nil {
			fmt.Fprintf(stderr, "cadb-advisor: %s: %v\n", s.Label, err)
			continue
		}
		if pooled {
			hitRate := 0.0
			if total := res.IO.PoolHits + res.IO.PoolMisses; total > 0 {
				hitRate = 100 * float64(res.IO.PoolHits) / float64(total)
			}
			fmt.Fprintf(stdout, "  %-32s %8d %8d %8d %10d %8d %7.1f%% %10.2f\n",
				s.Label, len(res.Rows), res.IO.PageReads, res.IO.PagesDecoded,
				res.IO.TuplesDecoded, res.IO.ColumnsDecoded,
				hitRate, float64(res.IO.BytesRead)/(1<<20))
		} else {
			fmt.Fprintf(stdout, "  %-32s %8d %8d %8d %10d %8d\n",
				s.Label, len(res.Rows), res.IO.PageReads, res.IO.PagesDecoded,
				res.IO.TuplesDecoded, res.IO.ColumnsDecoded)
		}
	}
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

func toolName(baseline, staged bool) string {
	switch {
	case staged:
		return "staged"
	case baseline:
		return "DTA"
	default:
		return "DTAc"
	}
}
