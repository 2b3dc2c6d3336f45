package experiments

import (
	"testing"

	"cadb/internal/compress"
)

// TestScanSweepSmall runs the cold-scan bandwidth sweep at a reduced scale
// and checks its invariants: every method × mode cell is present, the two
// decoding modes materialize the same tuple count (the sweep itself fails on
// checksum divergence), and the accounting is coherent (a cold scan's misses
// plus prefetched pages cover the page count).
func TestScanSweepSmall(t *testing.T) {
	cfg := DefaultScanSweepConfig()
	cfg.Rows = []int{20000}
	cfg.PoolBytes = 1 << 20
	points, err := ScanSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(poolMethods) * 3; len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	byMode := map[string]ScanPoint{}
	for _, p := range points {
		if p.Method == compress.Row {
			byMode[p.Mode] = p
		}
		if p.MBps <= 0 || p.Pages <= 0 || p.DiskBytes <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
		switch p.Mode {
		case "raw-read":
			if p.Tuples != 0 {
				t.Fatalf("raw-read decoded tuples: %+v", p)
			}
		case "serial", "prefetch":
			if p.Tuples != 20000 {
				t.Fatalf("%s/%s materialized %d tuples, want 20000", p.Method, p.Mode, p.Tuples)
			}
		default:
			t.Fatalf("unknown mode %q", p.Mode)
		}
	}
	// A cold scan touches every page exactly once: the serial mode demand-
	// misses every page; the readahead mode covers the segment with misses
	// plus prefetched loads (a prefetch that loses its frame before
	// consumption is missed again, so the sum can exceed the page count but
	// never undershoot it).
	if s := byMode["serial"]; s.PoolMisses != int64(s.Pages) || s.PoolPrefetched != 0 {
		t.Fatalf("serial cold scan: misses=%d prefetched=%d, want %d/0", s.PoolMisses, s.PoolPrefetched, s.Pages)
	}
	p := byMode["prefetch"]
	if got := p.PoolMisses + p.PoolPrefetched; got < int64(p.Pages) {
		t.Fatalf("prefetch: misses(%d) + prefetched(%d) < pages(%d)", p.PoolMisses, p.PoolPrefetched, p.Pages)
	}
	if p.PoolPrefetched == 0 {
		t.Fatal("prefetch scan issued no readahead")
	}
}

// TestPoolSweepChunkedSmall forces the out-of-core pool-sweep path at a small
// row count and checks the residency shape: with the pool sized to the full
// NONE working set every method runs entirely from memory after the warm
// pass, while a 10% pool leaves NONE missing.
func TestPoolSweepChunkedSmall(t *testing.T) {
	cfg := DefaultPoolSweepConfig()
	cfg.FactRows = 40000
	cfg.Queries = 8
	cfg.Verify = 2
	cfg.PoolFracs = []float64{0.1, 1.0}
	cfg.Chunked = true
	points, err := PoolSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(poolMethods) * len(cfg.PoolFracs); len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	for _, p := range points {
		if p.Queries != cfg.Queries || p.CountedReads <= 0 || p.WorkingSet <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
		if p.PoolFrac == 1.0 && p.Misses != 0 {
			t.Fatalf("%s at full-size pool still missed %d pages", p.Method, p.Misses)
		}
		if p.PoolFrac == 0.1 && p.Method == compress.None && p.Misses == 0 {
			t.Fatalf("NONE at 10%% pool missed nothing — sweep not exercising eviction")
		}
	}
}
