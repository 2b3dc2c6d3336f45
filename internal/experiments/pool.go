package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/exec"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/storage"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// PoolPoint is one cell of the pool-size × compression-method sweep: the
// whole query stream run through a disk-backed store with a fresh buffer pool
// of the given capacity.
type PoolPoint struct {
	Method compress.Method `json:"method"`
	// PoolFrac is the pool capacity as a fraction of the NONE working set
	// (the same absolute bytes for every method at a given fraction).
	PoolFrac  float64 `json:"pool_frac"`
	PoolBytes int64   `json:"pool_bytes"`
	// WorkingSet is this method's on-disk payload bytes (clustered structure
	// plus heap) — what the pool would need to hold everything.
	WorkingSet int64 `json:"working_set_bytes"`
	Queries    int   `json:"queries"`

	Hits      int64   `json:"pool_hits"`
	Misses    int64   `json:"pool_misses"`
	BytesRead int64   `json:"bytes_read"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`

	// WallNS is the wall-clock time of the store query loop only (building
	// and spilling segments happens once per method, outside the sweep).
	WallNS int64 `json:"wall_ns"`

	// EstReads / CountedReads compare the optimizer's page-read estimate for
	// the stream against the executor's physical counter.
	EstReads     float64 `json:"est_reads"`
	CountedReads int64   `json:"counted_reads"`
}

// ChunkedPoolRows is the fact-row count above which PoolSweep switches to the
// out-of-core path: the database is never materialized in memory — the
// segment is streamed to disk from a chunked generator — so the sweep reaches
// 10⁷ rows. Above the threshold there is no plain-row oracle; verification
// compares readahead scans against serial ones instead.
const ChunkedPoolRows = 2_000_000

// PoolSweepConfig sizes a PoolSweep.
type PoolSweepConfig struct {
	// FactRows is the lineitem row count (`cadb-repro ext-pool -rows N`).
	FactRows int
	// Chunked forces the out-of-core build path regardless of FactRows
	// (it is automatic above ChunkedPoolRows).
	Chunked bool
	Seed    int64
	// PoolFracs are the pool capacities as fractions of the NONE working
	// set; the same absolute byte budgets are applied to every method.
	PoolFracs []float64
	// Queries is the number of random shipdate-window queries per point.
	Queries int
	// Verify is how many of the stream's queries are differentially checked
	// against the plain-row oracle per method (outside the timed loop).
	Verify int
}

// DefaultPoolSweepConfig mirrors the README table: enough queries for stable
// hit rates, pool sizes straddling the compressed and uncompressed working
// sets.
func DefaultPoolSweepConfig() PoolSweepConfig {
	return PoolSweepConfig{
		FactRows:  12000,
		Seed:      42,
		PoolFracs: []float64{0.05, 0.1, 0.25, 0.5, 1.0},
		Queries:   120,
		Verify:    3,
	}
}

// poolMethods is the sweep's method axis.
var poolMethods = []compress.Method{compress.None, compress.Row, compress.Page}

// poolQueries builds the deterministic random query stream: shipdate windows
// of ~3% of the date span, sargable on the clustered key, projecting two
// measure columns. The same stream (same seed) runs against every method and
// pool size.
func poolQueries(db *catalogDateSpan, n int, seed int64) []*workload.Query {
	rng := rand.New(rand.NewSource(seed))
	span := db.hi - db.lo
	width := span * 3 / 100
	if width < 1 {
		width = 1
	}
	out := make([]*workload.Query, n)
	for i := range out {
		a := db.lo + int64(rng.Intn(int(span-width+1)))
		out[i] = &workload.Query{
			Tables: []string{"lineitem"},
			Select: []workload.ColRef{
				{Table: "lineitem", Col: "l_extendedprice"},
				{Table: "lineitem", Col: "l_quantity"},
			},
			Preds: []workload.Predicate{
				{Table: "lineitem", Col: "l_shipdate", Op: workload.OpBetween,
					Lo: storage.DateVal(a), Hi: storage.DateVal(a + width)},
			},
		}
	}
	return out
}

// catalogDateSpan is the observed l_shipdate range of a generated database.
type catalogDateSpan struct{ lo, hi int64 }

// PoolSweep measures hit rate and wall-clock across pool size × method at
// million-row-capable scale. For each method the TPC-H database is generated
// once, its clustered design materialized and spilled to disk once, and then
// each pool size swaps in a fresh pool over the same segment files (Repool) —
// so a sweep at 1e6 rows pays the encode cost three times, not fifteen.
func PoolSweep(cfg PoolSweepConfig) ([]PoolPoint, error) {
	if len(cfg.PoolFracs) == 0 || cfg.Queries == 0 {
		return nil, fmt.Errorf("experiments: empty pool sweep")
	}
	dir, err := os.MkdirTemp("", "cadb-pool-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if cfg.Chunked || cfg.FactRows > ChunkedPoolRows {
		return poolSweepChunked(cfg, dir)
	}

	// The NONE working set anchors the absolute pool budgets so every method
	// competes for the same memory.
	var noneWS int64
	var out []PoolPoint
	for _, m := range poolMethods {
		db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: cfg.FactRows, Seed: cfg.Seed})
		li := db.MustTable("lineitem")
		ci := li.Schema.ColIndex("l_shipdate")
		sp := catalogDateSpan{lo: li.Rows[0][ci].Int, hi: li.Rows[0][ci].Int}
		for _, r := range li.Rows {
			if v := r[ci].Int; v < sp.lo {
				sp.lo = v
			} else if v > sp.hi {
				sp.hi = v
			}
		}
		queries := poolQueries(&sp, cfg.Queries, cfg.Seed+1)

		defs := []*index.Def{
			{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: m},
		}
		// The first statement deploys every table's segments, and the stream
		// reads lineitem alone: a store over lineitem alone keeps the working
		// set — and every pool budget, a fraction of it — what the sweep reads.
		lineitemDB := catalog.NewDatabase(db.Name)
		lineitemDB.AddTable(li)
		st, err := exec.NewStore(lineitemDB, defs)
		if err != nil {
			return nil, err
		}
		mdir := fmt.Sprintf("%s/%s", dir, m)
		if err := os.Mkdir(mdir, 0o755); err != nil {
			return nil, err
		}
		// Warm-up pool: big enough that building/spilling and the verify pass
		// don't interfere with the sweep points.
		st.SetDiskBacked(mdir, bufferpool.New(1<<30))
		for i := 0; i < cfg.Verify && i < len(queries); i++ {
			got, err := st.RunQuery(queries[i])
			if err != nil {
				st.Close()
				return nil, fmt.Errorf("%s: %w", m, err)
			}
			want, err := exec.Run(db, queries[i])
			if err != nil {
				st.Close()
				return nil, err
			}
			if !resultsIdentical(got, want) {
				st.Close()
				return nil, fmt.Errorf("experiments: %s disk-backed result diverged from the oracle on query %d", m, i)
			}
		}
		if st.DiskBytes() == 0 {
			// No verify queries ran: force the build.
			if _, err := st.RunQuery(queries[0]); err != nil {
				st.Close()
				return nil, err
			}
		}
		ws := st.DiskBytes()
		if m == compress.None {
			noneWS = ws
		}

		// The optimizer's estimate is pool-independent; price the stream once.
		cm := optimizer.NewCostModel(db)
		p, err := index.Build(db, defs[0])
		if err != nil {
			st.Close()
			return nil, err
		}
		ocfg := optimizer.NewConfiguration(optimizer.FromPhysical(p))
		var est float64
		for _, q := range queries {
			est += cm.Plan(&workload.Statement{Query: q}, ocfg).EstimatedPageReads()
		}

		for _, frac := range cfg.PoolFracs {
			poolBytes := int64(float64(noneWS) * frac)
			if poolBytes < 2*storage.PageSize {
				poolBytes = 2 * storage.PageSize
			}
			pool := bufferpool.New(poolBytes)
			if err := st.SetPool(pool); err != nil {
				st.Close()
				return nil, err
			}
			// One unmeasured pass warms the pool so the point reports
			// steady-state behavior, not the compulsory cold misses every
			// pool pays once.
			for _, q := range queries {
				if _, err := st.RunQuery(q); err != nil {
					st.Close()
					return nil, fmt.Errorf("%s @ %.2f (warm): %w", m, frac, err)
				}
			}
			before := pool.Stats()
			var counted int64
			start := time.Now()
			for _, q := range queries {
				res, err := st.RunQuery(q)
				if err != nil {
					st.Close()
					return nil, fmt.Errorf("%s @ %.2f: %w", m, frac, err)
				}
				counted += res.IO.PageReads
			}
			wall := time.Since(start)
			after := pool.Stats()
			stats := bufferpool.Stats{
				Hits:      after.Hits - before.Hits,
				Misses:    after.Misses - before.Misses,
				Evictions: after.Evictions - before.Evictions,
				BytesRead: after.BytesRead - before.BytesRead,
			}
			pt := PoolPoint{
				Method:       m,
				PoolFrac:     frac,
				PoolBytes:    poolBytes,
				WorkingSet:   ws,
				Queries:      len(queries),
				Hits:         stats.Hits,
				Misses:       stats.Misses,
				BytesRead:    stats.BytesRead,
				Evictions:    stats.Evictions,
				WallNS:       wall.Nanoseconds(),
				EstReads:     est,
				CountedReads: counted,
			}
			if total := stats.Hits + stats.Misses; total > 0 {
				pt.HitRate = float64(stats.Hits) / float64(total)
			}
			out = append(out, pt)
		}
		st.Close()
	}
	return out, nil
}

// poolSweepChunked is the out-of-core sweep: the lineitem segment is built
// straight from the chunked generator through a SegmentWriter (one block plus
// one tentative page resident), and the query stream is random ~3% row
// windows — picked in row space so every method serves the same logical rows,
// then mapped to each segment's page range, exactly what a clustered shipdate
// window resolves to on the in-memory path.
func poolSweepChunked(cfg PoolSweepConfig, dir string) ([]PoolPoint, error) {
	type pageRange struct{ lo, hi int }
	var noneWS int64
	var out []PoolPoint
	for _, m := range poolMethods {
		src := datagen.ChunkedTPCHLineitem(datagen.TPCHConfig{LineitemRows: cfg.FactRows, Seed: cfg.Seed})
		si, err := buildChunkedSegment(fmt.Sprintf("%s/%s.seg", dir, m), src, m, bufferpool.New(64<<20))
		if err != nil {
			return nil, err
		}
		seg := si.Seg
		ws := seg.DiskBytes()
		if m == compress.None {
			noneWS = ws
		}
		spec := scanMeasureSpec(src.Schema())

		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		total := seg.Rows()
		width := total * 3 / 100
		if width < 1 {
			width = 1
		}
		ranges := make([]pageRange, cfg.Queries)
		for i := range ranges {
			a := rng.Int63n(total - width + 1)
			ranges[i] = pageRange{lo: seg.PageForRow(a), hi: seg.PageForRow(a+width-1) + 1}
		}

		// No plain-row oracle exists at this scale; verify that readahead
		// scans of the first windows are checksum-identical to serial ones.
		for i := 0; i < cfg.Verify && i < len(ranges); i++ {
			var s1, s2 storage.IOStats
			t1, sum1, err := drainChecksum(si.PageRangeCursor(ranges[i].lo, ranges[i].hi, spec, &s1))
			if err != nil {
				seg.CloseBacking()
				return nil, err
			}
			pc := si.PageRangeCursor(ranges[i].lo, ranges[i].hi, spec, &s2)
			pc.EnablePrefetch(storage.DefaultPrefetchWindow, storage.DefaultPrefetchWorkers)
			t2, sum2, err := drainChecksum(pc)
			if err != nil {
				seg.CloseBacking()
				return nil, err
			}
			if t1 != t2 || sum1 != sum2 {
				seg.CloseBacking()
				return nil, fmt.Errorf("experiments: %s chunked window %d: readahead scan diverged from serial", m, i)
			}
		}

		for _, frac := range cfg.PoolFracs {
			poolBytes := int64(float64(noneWS) * frac)
			if poolBytes < 2*storage.PageSize {
				poolBytes = 2 * storage.PageSize
			}
			pool := bufferpool.New(poolBytes)
			if err := seg.Repool(pool); err != nil {
				seg.CloseBacking()
				return nil, err
			}
			run := func(count *int64) error {
				for _, r := range ranges {
					var st storage.IOStats
					if _, _, err := drainChecksum(si.PageRangeCursor(r.lo, r.hi, spec, &st)); err != nil {
						return err
					}
					if count != nil {
						*count += st.PageReads
					}
				}
				return nil
			}
			// One unmeasured pass warms the pool (same steady-state protocol
			// as the in-memory sweep).
			if err := run(nil); err != nil {
				seg.CloseBacking()
				return nil, fmt.Errorf("%s @ %.2f (warm): %w", m, frac, err)
			}
			before := pool.Stats()
			var counted int64
			start := time.Now()
			if err := run(&counted); err != nil {
				seg.CloseBacking()
				return nil, fmt.Errorf("%s @ %.2f: %w", m, frac, err)
			}
			wall := time.Since(start)
			after := pool.Stats()
			pt := PoolPoint{
				Method:       m,
				PoolFrac:     frac,
				PoolBytes:    poolBytes,
				WorkingSet:   ws,
				Queries:      len(ranges),
				Hits:         after.Hits - before.Hits,
				Misses:       after.Misses - before.Misses,
				BytesRead:    after.BytesRead - before.BytesRead,
				Evictions:    after.Evictions - before.Evictions,
				WallNS:       wall.Nanoseconds(),
				CountedReads: counted,
			}
			if total := pt.Hits + pt.Misses; total > 0 {
				pt.HitRate = float64(pt.Hits) / float64(total)
			}
			out = append(out, pt)
		}
		seg.CloseBacking()
	}
	return out, nil
}

// PoolAwareShift runs the advisor twice over the same database, workload and
// budget — once with the cold-store cost model, once with a PoolProfile of
// the given capacity — and returns both recommendations. With the pool
// holding a compressed hot set that the uncompressed variants spill out of,
// the pool-aware run shifts additional bytes onto PAGE compression.
func PoolAwareShift(db *catalog.Database, wl *workload.Workload, budget, poolBytes int64, seed int64) (cold, aware *core.Recommendation, err error) {
	mk := func(profile *optimizer.PoolProfile) (*core.Recommendation, error) {
		opts := core.DefaultOptions(budget)
		opts.Seed = seed
		opts.PoolProfile = profile
		return core.New(db, wl, opts).Recommend()
	}
	if cold, err = mk(nil); err != nil {
		return nil, nil, err
	}
	if aware, err = mk(optimizer.NewPoolProfile(poolBytes)); err != nil {
		return nil, nil, err
	}
	return cold, aware, nil
}

// pageShare is the fraction of a recommendation's bytes on PAGE compression.
func pageShare(rec *core.Recommendation) float64 {
	var page, total int64
	for _, h := range rec.Config.Indexes() {
		total += h.Bytes
		if h.Def.Method == compress.Page {
			page += h.Bytes
		}
	}
	if total == 0 {
		return 0
	}
	return float64(page) / float64(total)
}

// ExtPool is the registry entry: a reduced-scale sweep rendering the
// hit-rate and wall-clock table, with the compression-aware headline (PAGE's
// working set fits where NONE's doesn't) called out.
func ExtPool(sc Scale) *Report {
	rep := &Report{ID: "ext-pool", Title: "Extension: buffer-pool residency under compression (disk-backed segments)"}
	cfg := DefaultPoolSweepConfig()
	cfg.FactRows = sc.LineitemRows
	cfg.Seed = sc.Seed
	cfg.Queries = 60
	points, err := PoolSweep(cfg)
	if err != nil {
		rep.Notef("pool sweep failed: %v", err)
		return rep
	}
	tbl := rep.NewTable("hit rate and wall-clock by pool size (pool bytes fixed across methods)",
		"method", "pool-frac", "pool-KB", "working-set-KB", "hit-rate", "misses", "MB-read", "wall-ms", "est/counted")
	for _, p := range points {
		ratio := float64(0)
		if p.CountedReads > 0 {
			ratio = p.EstReads / float64(p.CountedReads)
		}
		tbl.Add(p.Method.String(), fmt.Sprintf("%.2f", p.PoolFrac), p.PoolBytes/1024, p.WorkingSet/1024,
			fmt.Sprintf("%.1f%%", 100*p.HitRate), p.Misses,
			fmt.Sprintf("%.1f", float64(p.BytesRead)/(1<<20)),
			fmt.Sprintf("%.1f", float64(p.WallNS)/1e6),
			fmt.Sprintf("%.2f", ratio))
	}
	rep.Notef("pool capacities are fractions of the NONE working set, so at each row every method competes for the same memory; PAGE's smaller working set turns the same pool into a higher hit rate")
	rep.Notef("the first %d queries of each method's stream are verified byte-identical to the plain-row oracle before the timed loop", cfg.Verify)

	// Pool-aware costing: the same tuning run with and without a PoolProfile.
	// The capacity sits between the compressed and uncompressed working sets
	// measured above, so compressed designs earn the residency discount and
	// uncompressed ones don't.
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Seed: sc.Seed})
	wl := workloads.SelectIntensive(workloads.MustTPCH())
	var noneWS, pageWS int64
	for _, p := range points {
		if p.Method == compress.None && p.WorkingSet > noneWS {
			noneWS = p.WorkingSet
		}
		if p.Method == compress.Page && p.WorkingSet > pageWS {
			pageWS = p.WorkingSet
		}
	}
	poolBytes := (noneWS + pageWS) / 2
	cold, aware, err := PoolAwareShift(db, wl, db.TotalHeapBytes()/4, poolBytes, sc.Seed)
	if err != nil {
		rep.Notef("pool-aware advisor comparison failed: %v", err)
		return rep
	}
	shift := rep.NewTable(fmt.Sprintf("advisor with vs without a PoolProfile (capacity %d KB, between PAGE's and NONE's working sets)", poolBytes/1024),
		"cost model", "designs", "size-KB", "page-share", "improvement")
	for _, row := range []struct {
		name string
		rec  *core.Recommendation
	}{{"cold-store", cold}, {"pool-aware", aware}} {
		shift.Add(row.name, len(row.rec.Config.Indexes()), row.rec.SizeBytes/1024,
			fmt.Sprintf("%.0f%%", 100*pageShare(row.rec)),
			fmt.Sprintf("%.1f%%", row.rec.Improvement))
	}
	if ps, cs := pageShare(aware), pageShare(cold); ps > cs {
		rep.Notef("the residency discount moved %.0f%% of recommended bytes onto PAGE compression (%.0f%% -> %.0f%%): designs that fit the pool are rewarded beyond their raw page-count reduction", 100*(ps-cs), 100*cs, 100*ps)
	} else {
		rep.Notef("recommendations agree at this scale; the profile only reorders choices when a compressed variant fits the pool and its uncompressed twin does not")
	}
	return rep
}
