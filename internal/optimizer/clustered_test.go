package optimizer_test

import (
	"strings"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/optimizer"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// TestClusteredTableNeverPlansHeapScan holds the invariant that lets the
// segment store keep no heap beside a clustered table: on the designs the
// advisor recommends for the TPC-H, TPC-H-with-updates and Sales workloads,
// no plan — of a query, or of a write's lookup — reads a table that has a
// clustered index through a heap scan. The clustered path is where a table's
// access starts and it is always covering, so only another index can beat
// it.
func TestClusteredTableNeverPlansHeapScan(t *testing.T) {
	clusteredTables := 0
	for _, c := range []struct {
		name string
		db   *catalog.Database
		wl   *workload.Workload
	}{
		{"tpch", datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 1}), workloads.MustTPCH()},
		{"tpch-update", datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 1}), workloads.MustTPCHWithUpdates()},
		{"sales", datagen.NewSales(datagen.SalesConfig{FactRows: 4000, Zipf: 0.8, Seed: 1}), workloads.MustSales(1)},
	} {
		opts := core.DefaultOptions(c.db.TotalHeapBytes() / 4)
		opts.Parallelism = 1
		rec, err := core.New(c.db, c.wl, opts).Recommend()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		clustered := make(map[string]bool)
		for _, h := range rec.Config.Indexes() {
			if h.Def.Clustered && !h.Def.IsPartial() && !h.Def.IsMV() {
				clustered[strings.ToLower(h.Def.Table)] = true
			}
		}
		clusteredTables += len(clustered)
		t.Logf("%s: %d indexes, clustered %v", c.name, len(rec.Config.Indexes()), clustered)
		cm := optimizer.NewCostModel(c.db)
		for _, s := range c.wl.Statements {
			for _, ap := range cm.Plan(s, rec.Config).Paths {
				if ap.Kind == "heap-scan" && clustered[strings.ToLower(ap.Table)] {
					t.Errorf("%s: %s plans a heap scan of %s, which has a clustered index", c.name, s.Label, ap.Table)
				}
			}
		}
	}
	if clusteredTables == 0 {
		t.Fatal("no recommended design has a clustered index: the invariant went unchecked")
	}
}
