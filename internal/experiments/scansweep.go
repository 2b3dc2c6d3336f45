package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cadb/internal/bufferpool"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/storage"
)

// ScanPoint is one (method × row count × mode) cell of the cold-scan
// bandwidth sweep: a spilled segment scanned end to end through a fresh
// buffer pool, with MB/s measured against the raw ReadAt baseline over the
// same file.
type ScanPoint struct {
	Method compress.Method `json:"method"`
	Rows   int             `json:"rows"`
	Pages  int             `json:"pages"`
	// DiskBytes is the segment's on-disk payload size — the numerator of
	// every mode's MB/s, so the modes are directly comparable.
	DiskBytes int64 `json:"disk_bytes"`

	// Mode is one of "raw-read", "serial", "prefetch".
	Mode   string  `json:"mode"`
	WallNS int64   `json:"wall_ns"`
	MBps   float64 `json:"mbps"`
	// ColdOS records whether the OS page cache was successfully evicted
	// before this run — when false the numbers measure cache-warm reads.
	ColdOS bool `json:"cold_os"`

	// Tuples is the number of rows the scan materialized (0 for raw-read).
	Tuples int64 `json:"tuples"`
	// PoolMisses / PoolPrefetched / PrefetchWasted describe how the pages
	// arrived: demand misses, readahead loads, and readahead that was never
	// consumed.
	PoolMisses     int64 `json:"pool_misses"`
	PoolPrefetched int64 `json:"pool_prefetched"`
	PrefetchWasted int64 `json:"prefetch_wasted"`
}

// ScanSweepConfig sizes a ScanSweep over the generated TPC-H lineitem table.
type ScanSweepConfig struct {
	// Rows are the fact row counts to sweep (each gets its own segments).
	Rows []int
	Seed int64
	// PoolBytes is the capacity of the fresh pool each mode scans through.
	// Cold scans touch every page exactly once, so the pool only bounds
	// memory — it never turns the scan warm.
	PoolBytes int64
}

// The sweep's readahead is deeper than the exec-layer defaults: a cold full
// scan is exactly the access pattern that profits from a 4 MB window, while
// the exec default stays conservative for mixed workloads sharing the pool.
const (
	scanSweepWindow  = 2 * storage.DefaultPrefetchWindow
	scanSweepWorkers = 6
)

// DefaultScanSweepConfig is the README-documented configuration (rows are set
// by the caller — `cadb-repro ext-scan -rows 1000000`).
func DefaultScanSweepConfig() ScanSweepConfig {
	return ScanSweepConfig{Rows: []int{1_000_000}, Seed: 42, PoolBytes: 64 << 20}
}

// scanMeasureSpec projects the two lineitem measure columns the pool sweep
// also reads. The first is an integer — drainChecksum folds it into an
// order-sensitive checksum, so any reordering or divergence across scan modes
// is caught, not just miscounts.
func scanMeasureSpec(s *storage.Schema) *storage.DecodeSpec {
	return &storage.DecodeSpec{Needed: []int{s.ColIndex("l_quantity"), s.ColIndex("l_extendedprice")}}
}

// drainChecksum consumes a cursor to exhaustion, folding the first projected
// column into an order-sensitive FNV-style checksum.
func drainChecksum(cur *index.Cursor) (tuples int64, sum uint64, err error) {
	defer cur.Close()
	for {
		b, berr := cur.NextBatch()
		if berr != nil {
			return 0, 0, berr
		}
		if b == nil {
			return tuples, sum, nil
		}
		for _, r := range b.Rows {
			sum = sum*1099511628211 + uint64(r[0].Int)
			tuples++
		}
	}
}

// rawReadBandwidth reads the whole spill file sequentially via ReadAt in
// 1 MB slabs — the no-decode, no-pool upper bound the scan modes chase.
func rawReadBandwidth(path string) (bytes int64, wall time.Duration, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	start := time.Now()
	var off int64
	for {
		n, rerr := f.ReadAt(buf, off)
		off += int64(n)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, 0, rerr
		}
	}
	return off, time.Since(start), nil
}

func mbps(bytes int64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / wall.Seconds()
}

// ScanSweep measures cold full-scan bandwidth over spilled lineitem heap
// segments. For each method × row count the segment is built and spilled
// once, then scanned three ways — raw sequential ReadAt (the disk
// baseline), a serial cursor, and a serial cursor with async readahead — each
// through a fresh buffer pool, with the file evicted from the OS page cache
// first so each mode pays genuinely cold reads (without that, every mode
// reads at memcpy speed and readahead has nothing to hide). The two decoding
// modes must produce identical order-sensitive checksums; a divergence fails
// the sweep.
func ScanSweep(cfg ScanSweepConfig) ([]ScanPoint, error) {
	if len(cfg.Rows) == 0 {
		return nil, fmt.Errorf("experiments: empty scan sweep")
	}
	dir, err := os.MkdirTemp("", "cadb-scan-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var out []ScanPoint
	for _, rows := range cfg.Rows {
		db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: rows, Seed: cfg.Seed})
		for _, m := range poolMethods {
			si, err := index.BuildSegmentIndex(db, &index.Def{Table: "lineitem", Clustered: true, Method: m})
			if err != nil {
				return nil, err
			}
			seg := si.Seg
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.seg", m, rows))
			if err := seg.Spill(path, bufferpool.New(cfg.PoolBytes)); err != nil {
				return nil, err
			}
			spec := scanMeasureSpec(seg.Schema)
			// Evict the just-written file from the OS page cache before each
			// mode so every run pays real disk reads; best-effort — on
			// platforms without fadvise the sweep runs warm and says so.
			chill := func() bool { return storage.DropOSCache(path) == nil }
			point := func(mode string, cold bool) ScanPoint {
				return ScanPoint{
					Method: m, Rows: rows, Pages: seg.NumPages(), DiskBytes: seg.DiskBytes(),
					Mode: mode, ColdOS: cold,
				}
			}

			cold := chill()
			fileBytes, rawWall, err := rawReadBandwidth(path)
			if err != nil {
				seg.CloseBacking()
				return nil, err
			}
			pt := point("raw-read", cold)
			pt.WallNS = rawWall.Nanoseconds()
			pt.MBps = mbps(fileBytes, rawWall)
			out = append(out, pt)

			var refTuples int64
			var refSum uint64
			for _, mode := range []string{"serial", "prefetch"} {
				pool := bufferpool.New(cfg.PoolBytes)
				if err := seg.Repool(pool); err != nil {
					seg.CloseBacking()
					return nil, err
				}
				cold := chill()
				var st storage.IOStats
				start := time.Now()
				cur := si.ScanCursor(spec, &st)
				if mode == "prefetch" {
					cur.EnablePrefetch(scanSweepWindow, scanSweepWorkers)
				}
				tuples, sum, err := drainChecksum(cur)
				wall := time.Since(start)
				if err != nil {
					seg.CloseBacking()
					return nil, fmt.Errorf("%s/%s rows=%d: %w", m, mode, rows, err)
				}
				if mode == "serial" {
					refTuples, refSum = tuples, sum
				} else if tuples != refTuples || sum != refSum {
					seg.CloseBacking()
					return nil, fmt.Errorf("experiments: %s scan of %s rows=%d diverged from serial (%d/%x vs %d/%x)",
						mode, m, rows, tuples, sum, refTuples, refSum)
				}
				pt := point(mode, cold)
				pt.WallNS = wall.Nanoseconds()
				pt.MBps = mbps(seg.DiskBytes(), wall)
				pt.Tuples = tuples
				pt.PoolMisses = st.PoolMisses
				pt.PoolPrefetched = st.PoolPrefetched
				pt.PrefetchWasted = pool.Stats().PrefetchWasted
				out = append(out, pt)
			}
			seg.CloseBacking()
		}
	}
	return out, nil
}

// ExtScan is the registry entry: a reduced-scale cold-scan bandwidth sweep
// rendering MB/s per method × mode with the raw ReadAt baseline alongside.
func ExtScan(sc Scale) *Report {
	rep := &Report{ID: "ext-scan", Title: "Extension: cold-scan bandwidth — serial and readahead scans vs raw ReadAt"}
	cfg := DefaultScanSweepConfig()
	cfg.Rows = []int{sc.LineitemRows}
	cfg.Seed = sc.Seed
	points, err := ScanSweep(cfg)
	if err != nil {
		rep.Notef("scan sweep failed: %v", err)
		return rep
	}
	tbl := rep.NewTable("cold full-scan bandwidth by mode (fresh pool per mode; MB/s over on-disk payload bytes)",
		"method", "rows", "mode", "MB/s", "wall-ms", "misses", "prefetched", "wasted")
	serial := map[string]float64{}
	for _, p := range points {
		if p.Mode == "serial" {
			serial[fmt.Sprintf("%s/%d", p.Method, p.Rows)] = p.MBps
		}
	}
	for _, p := range points {
		mb := fmt.Sprintf("%.0f", p.MBps)
		if s := serial[fmt.Sprintf("%s/%d", p.Method, p.Rows)]; s > 0 && p.Mode != "raw-read" && p.Mode != "serial" {
			mb = fmt.Sprintf("%.0f (%.1fx)", p.MBps, p.MBps/s)
		}
		tbl.Add(p.Method.String(), p.Rows, p.Mode, mb,
			fmt.Sprintf("%.1f", float64(p.WallNS)/1e6), p.PoolMisses, p.PoolPrefetched, p.PrefetchWasted)
	}
	rep.Notef("each segment is the lineitem heap built in memory and spilled; both decoding modes produced identical order-sensitive row checksums")
	rep.Notef("raw-read is sequential 1MB ReadAt over the same file — the no-decode bandwidth ceiling the scans chase")
	for _, p := range points {
		if !p.ColdOS {
			rep.Notef("OS page-cache eviction unavailable on this platform — numbers measure cache-warm reads")
			break
		}
	}
	return rep
}
