package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/exec"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/storage"
	"cadb/internal/workload"
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

// PoolSweepConfig sizes a PoolSweep.
type PoolSweepConfig struct {
	// FactRows is the lineitem row count (`cadb-repro ext-pool -rows N`).
	FactRows int
	Seed     int64
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
		// A span narrower than the window (one shipping date) pins every
		// window at the start.
		a := db.lo + int64(rng.Intn(int(max(span-width, 0)+1)))
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

// resultsIdentical compares two executed results byte-for-byte under the
// canonical row encoding.
func resultsIdentical(a, b *exec.Result) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Schema.Columns) != len(b.Schema.Columns) {
		return false
	}
	for i := range a.Schema.Columns {
		if !strings.EqualFold(a.Schema.Columns[i].Name, b.Schema.Columns[i].Name) {
			return false
		}
	}
	for i := range a.Rows {
		if !bytes.Equal(storage.EncodeRow(a.Schema, a.Rows[i], nil), storage.EncodeRow(b.Schema, b.Rows[i], nil)) {
			return false
		}
	}
	return true
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
	return rep
}
