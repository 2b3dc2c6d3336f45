package experiments

import (
	"fmt"
	"testing"

	"cadb/internal/compress"
)

// TestPoolSweepPageBeatsNone pins the tentpole's headline at reduced scale:
// with the same absolute pool bytes, PAGE's compressed working set yields a
// hit rate at least 20 points above NONE's at some pool size, and strictly
// fewer misses at every shared pool size.
func TestPoolSweepPageBeatsNone(t *testing.T) {
	if testing.Short() {
		t.Skip("pool sweep is not short")
	}
	cfg := DefaultPoolSweepConfig()
	cfg.FactRows = 4000
	cfg.Queries = 40
	pts, err := PoolSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]PoolPoint)
	for _, p := range pts {
		byKey[p.Method.String()+"@"+formatFrac(p.PoolFrac)] = p
		if p.Hits+p.Misses == 0 {
			t.Fatalf("%s @ %.2f: no pool traffic — segments are not disk-backed", p.Method, p.PoolFrac)
		}
	}
	bestGap := 0.0
	for _, frac := range cfg.PoolFracs {
		none, okN := byKey[compress.None.String()+"@"+formatFrac(frac)]
		page, okP := byKey[compress.Page.String()+"@"+formatFrac(frac)]
		if !okN || !okP {
			t.Fatalf("missing sweep points at frac %.2f", frac)
		}
		if page.Misses > none.Misses {
			t.Fatalf("frac %.2f: PAGE missed more than NONE (%d vs %d)", frac, page.Misses, none.Misses)
		}
		if gap := page.HitRate - none.HitRate; gap > bestGap {
			bestGap = gap
		}
	}
	if bestGap < 0.20 {
		t.Fatalf("PAGE's best hit-rate lead over NONE is %.1f points, want >= 20", 100*bestGap)
	}
	// PAGE's working set must actually be smaller — that's the mechanism.
	nonePt := byKey[compress.None.String()+"@"+formatFrac(cfg.PoolFracs[0])]
	pagePt := byKey[compress.Page.String()+"@"+formatFrac(cfg.PoolFracs[0])]
	if pagePt.WorkingSet >= nonePt.WorkingSet {
		t.Fatalf("PAGE working set %d not smaller than NONE's %d", pagePt.WorkingSet, nonePt.WorkingSet)
	}
	// Same absolute pool bytes per fraction across methods.
	if pagePt.PoolBytes != nonePt.PoolBytes {
		t.Fatalf("pool bytes differ across methods: %d vs %d", pagePt.PoolBytes, nonePt.PoolBytes)
	}
}

func formatFrac(f float64) string { return fmt.Sprintf("%.2f", f) }

// TestPoolSweepOneRow: one lineitem row has one shipping date, a span
// narrower than the query window, which must still yield a query stream.
func TestPoolSweepOneRow(t *testing.T) {
	cfg := DefaultPoolSweepConfig()
	cfg.FactRows, cfg.Queries, cfg.PoolFracs = 1, 4, []float64{1}
	pts, err := PoolSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(poolMethods) {
		t.Fatalf("%d sweep points, want one per method (%d)", len(pts), len(poolMethods))
	}
}
