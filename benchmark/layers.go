package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cadb"
	"cadb/internal/optimizer"
	"cadb/internal/sampling"
	"cadb/internal/sizeest"
	"cadb/internal/sizing"
)

// Per-layer metrics are measured from outside: a stopwatch around calls into
// each package's exported functions, plus the counters those calls already
// return. They come from the traced rep and from probes that call one layer
// at a time on a fresh copy of the workload's database.

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

const mb = 1e6

// repLayerMetrics reads the layers the loop itself passes through off the
// traced rep; base is the untraced rep run just before it.
func (r *runner) repLayerMetrics(base, traced *repOut) map[string]sample {
	m := make(map[string]sample)
	k := float64(len(traced.passes))
	m["datagen.generate_s"] = exact("s", traced.gen.Seconds())
	m["sqlparse.parse_ms"] = exact("ms", traced.parse.Seconds()*1e3)

	t := traced.rec.Timing
	m["core.candidate_gen_s"] = exact("s", t.CandidateGen.Seconds())
	m["core.estimate_all_s"] = exact("s", t.EstimateAll.Seconds())
	m["core.enumerate_s"] = exact("s", (t.Enumerate - t.Refine).Seconds())
	m["core.refine_s"] = exact("s", t.Refine.Seconds())
	m["core.other_s"] = exact("s", (t.Total - t.CandidateGen - t.EstimateAll - t.Enumerate).Seconds())
	m["core.candidates"] = exact("count", float64(traced.rec.CandidateCount))
	m["core.selected"] = exact("count", float64(traced.rec.SelectedCount))
	m["core.whatif_evals"] = exact("count", float64(t.WhatIfEvaluations))
	m["core.refinements"] = exact("count", float64(t.Refinements))
	m["core.tune_alloc_mb"] = exact("MB", float64(traced.tuneAlloc)/mb)
	m["sizeest.samplecf_calls"] = exact("count", float64(t.SampleCFCalls))
	var planned, deduced float64
	if plan := traced.rec.EstimationPlan; plan != nil {
		for _, n := range plan.Nodes {
			if n.Target {
				planned++
				if n.State == sizing.StateDeduced {
					deduced++
				}
			}
		}
	}
	m["sizeest.deduced_share"] = exact("ratio", deduced/math.Max(1, planned))
	m["optimizer.stmt_reuse_pct"] = exact("%", pct(float64(t.ReusedStatements), float64(t.ReusedStatements+t.DeltaStatements)))
	m["optimizer.cache_hit_pct"] = exact("%", pct(float64(t.CostCacheHits), float64(t.CostCacheHits+t.CostCacheMisses)))
	m["optimizer.page_read_err_pct"] = exact("%", pct(math.Abs(traced.estReads-traced.countedReads), traced.countedReads))

	p := traced.pool
	m["bufferpool.hit_pct"] = exact("%", pct(float64(p.Hits), float64(p.Gets)))
	m["bufferpool.misses_per_pass"] = exact("count", float64(p.Misses)/k)
	m["bufferpool.evictions_per_pass"] = exact("count", float64(p.Evictions)/k)
	m["bufferpool.mb_read_per_pass"] = exact("MB", float64(p.BytesRead)/k/mb)
	m["bufferpool.prefetched_per_pass"] = exact("count", float64(p.Prefetched)/k)
	peak := 0.0
	if traced.poolBytes > 0 {
		peak = float64(p.PeakBytes) / float64(traced.poolBytes)
	}
	m["bufferpool.peak_over_capacity"] = exact("ratio", peak)

	var io cadb.ExecIOStats
	var query, write []time.Duration
	var rowsOut int64
	perStmt := make([]time.Duration, len(traced.passes[0].lat))
	for _, ps := range traced.passes {
		io.Add(ps.io)
		query, write = append(query, ps.query), append(write, ps.write)
		rowsOut += ps.rowsOut
		for i, d := range ps.lat {
			perStmt[i] += d
		}
	}
	m["exec.query_s"] = summarize("s", seconds(query))
	m["exec.write_s"] = summarize("s", seconds(write))
	m["exec.page_reads"] = exact("count", float64(io.PageReads)/k)
	m["exec.pages_decoded"] = exact("count", float64(io.PagesDecoded)/k)
	m["exec.tuples_decoded"] = exact("count", float64(io.TuplesDecoded)/k)
	m["exec.columns_decoded"] = exact("count", float64(io.ColumnsDecoded)/k)
	m["exec.tuples_per_row_out"] = exact("ratio", float64(io.TuplesDecoded)/math.Max(1, float64(rowsOut)))
	sort.Slice(perStmt, func(i, j int) bool { return perStmt[i] > perStmt[j] })
	m["exec.top3_share"] = exact("ratio", sum(perStmt[:min(3, len(perStmt))]).Seconds()/sum(perStmt).Seconds())
	m["exec.pass_alloc_mb"] = exact("MB", float64(traced.passAlloc)/k/mb)
	m["exec.oracle_pass_s"] = exact("s", r.oraclePass.Seconds())

	m["trace.overhead_pct"] = exact("%", 100*(traced.passMean()-base.passMean()).Seconds()/base.passMean().Seconds())
	m["proc.peak_rss_mb"] = exact("MB", peakRSS()/mb)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.gc_pause_ms"] = exact("ms", float64(ms.PauseTotalNs)/1e6)
	return m
}

// peakRSS reads the process's resident-set high-water mark in bytes (0 where
// /proc is missing).
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024
		}
	}
	return 0
}

// probe runs fn under the span probe[name] and returns its wall time.
func (r *runner) probe(root *span, name string, fn func() error) (time.Duration, error) {
	ps := r.tr.begin(root, "probe["+name+"]")
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	ps.end()
	if err != nil {
		err = fmt.Errorf("probe %s: %w", name, err)
	}
	return d, err
}

// probeLayers calls one layer at a time and adds what it measures to m. Each
// probe is a child span of root named probe[<metric>]. rec is the traced
// rep's recommendation; its definitions are rebuilt on fresh data of the same
// seed.
func (r *runner) probeLayers(m map[string]sample, rec *cadb.Recommendation, passMean time.Duration, root *span) error {
	db, wl := r.sp.gen(r.sp.Rows, r.seed), r.sp.parse()
	opts := cadb.DefaultOptions(0)
	r.sp.tweak(&opts)
	hypos := rec.Config.Indexes()

	// repeat reports the median wall time of n calls of fn as one probe.
	repeat := func(name string, n int, fn func() error) (time.Duration, error) {
		ds := make([]float64, n)
		_, err := r.probe(root, name, func() error {
			for i := range ds {
				t0 := time.Now()
				if err := fn(); err != nil {
					return err
				}
				ds[i] = float64(time.Since(t0))
			}
			return nil
		})
		return time.Duration(percentile(ds, 0.5)), err
	}

	// sampling: the shared 10% sample of every table.
	d, err := r.probe(root, "sampling.build_s", func() error {
		mgr := sampling.NewStore(db, opts.Seed).Manager(0.1)
		for _, t := range db.Tables() {
			if _, err := mgr.Sample(t.Name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["sampling.build_s"] = exact("s", d.Seconds())

	// sizeest: plan and execute size estimation of the recommended structures
	// under ROW and PAGE, as the advisor's estimation phase does.
	var targets []*cadb.IndexDef
	seen := make(map[string]bool)
	for _, h := range hypos {
		for _, method := range []cadb.CompressionMethod{cadb.RowCompression, cadb.PageCompression} {
			if t := h.Def.WithMethod(method); !seen[t.ID()] {
				seen[t.ID()] = true
				targets = append(targets, t)
			}
		}
	}
	d, err = r.probe(root, "sizeest.prepare_s", func() error {
		_, err := sizeest.New(db, sizeest.Config{Seed: opts.Seed, Workers: opts.Parallelism, UseDeduction: true}).Prepare(targets)
		return err
	})
	if err != nil {
		return err
	}
	m["sizeest.prepare_s"] = exact("s", d.Seconds())

	// sizeest again: the sizes the advisor promised against the bytes the
	// recommended structures take once built.
	var off, built float64
	if _, err = r.probe(root, "sizeest.size_err_pct", func() error {
		for _, h := range hypos {
			si, err := cadb.BuildSegmentIndex(db, h.Def)
			if err != nil {
				return err
			}
			off += math.Abs(float64(h.Bytes - si.MaterializedBytes()))
			built += float64(si.MaterializedBytes())
		}
		return nil
	}); err != nil {
		return err
	}
	m["sizeest.size_err_pct"] = exact("%", pct(off, built))

	// optimizer: one what-if call for the whole workload under the
	// recommendation, with and without the statement-cost cache.
	cm := cadb.NewCostModel(db)
	d, _ = repeat("optimizer.whatif_cold_us", 5, func() error {
		cm.ResetCostCache()
		cm.WorkloadCost(wl, rec.Config)
		return nil
	})
	m["optimizer.whatif_cold_us"] = exact("us", float64(d)/1e3)
	d, _ = repeat("optimizer.whatif_warm_us", 21, func() error {
		cm.WorkloadCost(wl, rec.Config)
		return nil
	})
	m["optimizer.whatif_warm_us"] = exact("us", float64(d)/1e3)
	d, _ = r.probe(root, "optimizer.evaluator_add_us", func() error {
		cm.ResetCostCache()
		ev := optimizer.NewEvaluator(cm, wl, cadb.NewConfiguration(), nil)
		for _, h := range hypos {
			ev.CostWithAdd(h)
		}
		return nil
	})
	m["optimizer.evaluator_add_us"] = exact("us", float64(d)/1e3/math.Max(1, float64(len(hypos))))

	// index, compress, storage: the clustered fact structure under each
	// uniform method — space, write cost and read cost side by side.
	for _, method := range methods {
		def := r.sp.fact.WithMethod(method.Method)
		var si *cadb.SegmentIndex
		d, err = r.probe(root, "index.build_mbps."+method.Name, func() error {
			var err error
			si, err = cadb.BuildSegmentIndex(db, def)
			return err
		})
		if err != nil {
			return err
		}
		raw := float64(si.Physical.UncompressedBytes)
		m["index.build_mbps."+method.Name] = exact("MB/s", raw/mb/d.Seconds())
		m["compress.ratio."+method.Name] = exact("ratio", float64(si.MaterializedBytes())/raw)

		all := si.Schema().AllOrdinals()
		for _, scan := range []struct {
			name   string
			needed []int
		}{
			{"index.scan_mbps." + method.Name, all},
			{"index.scan1col_mbps." + method.Name, all[len(all)/2 : len(all)/2+1]},
		} {
			d, err = repeat(scan.name, 3, func() error { return scanAll(si, scan.needed) })
			if err != nil {
				return err
			}
			m[scan.name] = exact("MB/s", raw/mb/d.Seconds())
		}
		if method.Method == cadb.NoCompression {
			if err := r.probeStorage(m, si, root); err != nil {
				return err
			}
		}
	}

	// exec: the same pass on a store with no structures, and what the
	// recommendation bought over it.
	heap, err := r.heapPass(root)
	if err != nil {
		return err
	}
	m["exec.heap_pass_s"] = exact("s", heap.Seconds())
	m["exec.speedup_vs_heap"] = exact("ratio", heap.Seconds()/passMean.Seconds())
	return nil
}

// scanAll drains a full-scan cursor that decodes the needed columns.
func scanAll(si *cadb.SegmentIndex, needed []int) error {
	var io cadb.ExecIOStats
	cur := si.ScanCursor(&cadb.DecodeSpec{Needed: needed}, &io)
	defer cur.Close()
	for {
		b, err := cur.NextBatch()
		if err != nil || b == nil {
			return err
		}
	}
}

// probeStorage spills the segment, reads every page through a fresh pool
// large enough to keep them all, then times pin/unpin of a resident page.
func (r *runner) probeStorage(m map[string]sample, si *cadb.SegmentIndex, root *span) error {
	dir, err := os.MkdirTemp(r.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	seg := si.Seg
	pool := cadb.NewBufferPool(2*seg.DiskBytes() + 1<<20)
	defer seg.CloseBacking()
	bytes := float64(seg.DiskBytes())

	d, err := r.probe(root, "storage.spill_mbps", func() error { return seg.Spill(dir+"/fact.cadb", pool) })
	if err != nil {
		return err
	}
	m["storage.spill_mbps"] = exact("MB/s", bytes/mb/d.Seconds())

	fetch := func(page int) error {
		_, release, err := seg.FetchPage(page, nil)
		if err != nil {
			return err
		}
		release()
		return nil
	}
	d, err = r.probe(root, "storage.fetch_cold_mbps", func() error {
		for i := 0; i < seg.NumPages(); i++ {
			if err := fetch(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["storage.fetch_cold_mbps"] = exact("MB/s", bytes/mb/d.Seconds())

	const warm = 20000
	d, err = r.probe(root, "storage.fetch_warm_us", func() error {
		for i := 0; i < warm; i++ {
			if err := fetch(0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["storage.fetch_warm_us"] = exact("us", float64(d)/1e3/warm)
	return nil
}

// heapPass times the first recorded pass on a store holding only heaps, set
// up the way the workload's own store is. Its statements are checked against
// the oracle like any other.
func (r *runner) heapPass(root *span) (time.Duration, error) {
	ps := r.tr.begin(root, "probe[exec.heap_pass_s]")
	defer ps.end()
	var dir string
	if r.sp.Disk {
		var err error
		if dir, err = os.MkdirTemp(r.dir, "heap-"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
	}
	db, stmts := r.sp.gen(r.sp.Rows, r.seed), executable(r.sp.parse())
	names := spanNames("heap-stmt", stmts)
	st, _, err := r.openStore(db, nil, 0, dir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for i := 0; i <= r.sp.Warm; i++ {
		r.pass(st, stmts, names, i, ps)
	}
	return r.pass(st, stmts, names, r.sp.Warm+1, ps).total, nil
}
