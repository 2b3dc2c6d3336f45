package datagen

import (
	"math"
	"math/rand"
	"testing"

	"cadb/internal/compress"
)

func TestZipfUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for r, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("rank %d count %d not ~10000", r, c)
		}
	}
}

func TestZipfSkewOrdersRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := NewZipf(rng, 100, 1.5)
	counts := make([]int, 100)
	for i := 0; i < 200000; i++ {
		counts[z.Next()]++
	}
	if counts[0] < counts[1] || counts[1] < counts[5] {
		t.Fatalf("skew must favor low ranks: %v", counts[:8])
	}
	// Rank 0 should dominate heavily at z=1.5.
	if counts[0] < 10*counts[50] {
		t.Fatalf("insufficient skew: rank0=%d rank50=%d", counts[0], counts[50])
	}
}

func TestZipfHigherZMoreSkew(t *testing.T) {
	share := func(z float64) float64 {
		rng := rand.New(rand.NewSource(3))
		zp := NewZipf(rng, 50, z)
		hits := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if zp.Next() == 0 {
				hits++
			}
		}
		return float64(hits) / n
	}
	s0, s1, s3 := share(0), share(1), share(3)
	if !(s0 < s1 && s1 < s3) {
		t.Fatalf("top-rank share must grow with z: %v %v %v", s0, s1, s3)
	}
	if math.Abs(s0-0.02) > 0.01 {
		t.Fatalf("uniform share=%v want ~1/50", s0)
	}
}

func TestZipfBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 7} {
		for _, z := range []float64{0, 1, 3} {
			zp := NewZipf(rng, n, z)
			for i := 0; i < 1000; i++ {
				v := zp.Next()
				if v < 0 || v >= n {
					t.Fatalf("n=%d z=%v: rank %d out of range", n, z, v)
				}
			}
		}
	}
}

func TestTPCHShape(t *testing.T) {
	db := NewTPCH(TPCHConfig{LineitemRows: 4000, Seed: 5})
	li := db.MustTable("lineitem")
	if li.RowCount() != 4000 {
		t.Fatalf("lineitem rows=%d", li.RowCount())
	}
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		tab := db.Table(name)
		if tab == nil {
			t.Fatalf("missing table %s", name)
		}
		if tab.RowCount() == 0 {
			t.Fatalf("table %s empty", name)
		}
	}
	ord := db.MustTable("orders")
	if ord.RowCount() != 1000 {
		t.Fatalf("orders rows=%d want lineitem/4", ord.RowCount())
	}
	if !li.Fact || !ord.Fact {
		t.Fatal("lineitem and orders must be fact tables")
	}
	// FK integrity: every l_orderkey must exist in orders.
	st := li.Stats()
	if st.Col("l_orderkey").Max.Int >= ord.RowCount() {
		t.Fatal("l_orderkey out of range")
	}
}

func TestTPCHDeterminism(t *testing.T) {
	a := NewTPCH(TPCHConfig{LineitemRows: 1000, Seed: 6})
	b := NewTPCH(TPCHConfig{LineitemRows: 1000, Seed: 6})
	ra := a.MustTable("lineitem").Rows
	rb := b.MustTable("lineitem").Rows
	for i := range ra {
		for j := range ra[i] {
			if !ra[i][j].Equal(rb[i][j]) && !(ra[i][j].Null && rb[i][j].Null) {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
}

func TestTPCHSkewChangesDistribution(t *testing.T) {
	flat := NewTPCH(TPCHConfig{LineitemRows: 8000, Zipf: 0, Seed: 7})
	skew := NewTPCH(TPCHConfig{LineitemRows: 8000, Zipf: 3, Seed: 7})
	// With Z=3, l_partkey should concentrate: far fewer distinct values hit.
	dFlat, err := flat.MustTable("lineitem").DistinctPrefix([]string{"l_partkey"})
	if err != nil {
		t.Fatal(err)
	}
	dSkew, err := skew.MustTable("lineitem").DistinctPrefix([]string{"l_partkey"})
	if err != nil {
		t.Fatal(err)
	}
	if dSkew*2 > dFlat {
		t.Fatalf("Z=3 should collapse distinct partkeys: flat=%d skew=%d", dFlat, dSkew)
	}
}

func TestTPCHCompressibility(t *testing.T) {
	db := NewTPCH(TPCHConfig{LineitemRows: 5000, Seed: 8})
	li := db.MustTable("lineitem")
	cf, err := compress.Fraction(li.Schema, li.Rows, compress.Row)
	if err != nil {
		t.Fatal(err)
	}
	if cf > 0.9 {
		t.Fatalf("lineitem should ROW-compress below 0.9, got %v", cf)
	}
	if cf < 0.2 {
		t.Fatalf("implausibly strong compression: %v", cf)
	}
}

func TestSalesShape(t *testing.T) {
	db := NewSales(SalesConfig{FactRows: 5000, Zipf: 0.8, Seed: 9})
	for _, name := range []string{"sales", "customers", "products", "stores"} {
		if db.Table(name) == nil || db.Table(name).RowCount() == 0 {
			t.Fatalf("missing/empty table %s", name)
		}
	}
	f := db.MustTable("sales")
	if f.RowCount() != 5000 {
		t.Fatalf("fact rows=%d", f.RowCount())
	}
	if len(f.FKs) != 3 {
		t.Fatalf("fact FKs=%d want 3", len(f.FKs))
	}
	// promo must be NULL-heavy (compression-relevant).
	st := f.Stats()
	if frac := st.Col("promo").NullFrac(f.RowCount()); frac < 0.2 {
		t.Fatalf("promo null frac=%v want >0.2", frac)
	}
	// discount has few distinct values.
	if d := st.Col("discount").Distinct; d > 10 {
		t.Fatalf("discount distinct=%d want <=10", d)
	}
}

func TestTPCDSShape(t *testing.T) {
	db := NewTPCDS(TPCDSConfig{StoreSalesRows: 4000, Seed: 10})
	for _, name := range []string{"store_sales", "date_dim", "item", "store"} {
		if db.Table(name) == nil || db.Table(name).RowCount() == 0 {
			t.Fatalf("missing/empty table %s", name)
		}
	}
	ss := db.MustTable("store_sales")
	if ss.RowCount() != 4000 {
		t.Fatalf("fact rows=%d", ss.RowCount())
	}
	st := ss.Stats()
	if st.Col("ss_customer_sk").NullCount == 0 {
		t.Fatal("ss_customer_sk should contain NULLs")
	}
}

func TestDefaultsApplied(t *testing.T) {
	db := NewTPCH(TPCHConfig{Seed: 11})
	if db.MustTable("lineitem").RowCount() != int64(DefaultTPCH.LineitemRows) {
		t.Fatal("zero config should fall back to default rows")
	}
}
