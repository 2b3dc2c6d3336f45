package datagen

import (
	"fmt"
	"math/rand"

	"cadb/internal/catalog"
	"cadb/internal/storage"
)

// SalesConfig sizes the Sales database, which stands in for the paper's real
// customer workload ("tracks sales of a particular company").
type SalesConfig struct {
	FactRows int
	Zipf     float64
	Seed     int64
}

// DefaultSales is a laptop-scale configuration.
var DefaultSales = SalesConfig{FactRows: 25000, Zipf: 0.8, Seed: 7}

var (
	usStates   = []string{"CA", "WA", "NY", "TX", "OR", "FL", "MA", "IL", "GA", "PA", "OH", "MI", "NC", "VA", "AZ"}
	channels   = []string{"WEB", "STORE", "PHONE", "PARTNER"}
	categories = []string{"ELECTRONICS", "FURNITURE", "CLOTHING", "GROCERY", "SPORTS", "TOYS", "GARDEN", "AUTO"}
	promoCodes = []string{"NONE", "NONE", "NONE", "SPRING10", "SUMMER15", "VIP20", "CLEAR25"}
	regions4   = []string{"WEST", "EAST", "NORTH", "SOUTH"}
	cities     = []string{"SEATTLE", "PORTLAND", "SF", "LA", "NYC", "BOSTON", "CHICAGO", "AUSTIN", "DENVER", "MIAMI", "ATLANTA", "PHOENIX"}
)

// NewSales generates the Sales star schema: a SALES fact table plus
// CUSTOMERS, PRODUCTS and STORES dimensions. The fact table carries several
// compression-friendly columns (low-cardinality CHARs, NULL-able promo,
// clustered dates, discounts with few distinct values) and several that
// compress poorly (unique keys, near-random prices).
func NewSales(cfg SalesConfig) *catalog.Database {
	if cfg.FactRows <= 0 {
		cfg.FactRows = DefaultSales.FactRows
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := catalog.NewDatabase("sales")

	nCust := maxInt(cfg.FactRows/25, 20)
	nProd := maxInt(cfg.FactRows/50, 20)
	nStore := maxInt(cfg.FactRows/500, 8)

	db.AddTable(genSalesCustomers(rng, nCust))
	db.AddTable(genSalesProducts(rng, nProd))
	db.AddTable(genSalesStores(rng, nStore))
	db.AddTable(genSalesFact(rng, cfg, nCust, nProd, nStore))
	return db
}

func genSalesCustomers(rng *rand.Rand, n int) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "custid", Kind: storage.KindInt},
		storage.Column{Name: "custname", Kind: storage.KindString, FixedWidth: 20},
		storage.Column{Name: "segment", Kind: storage.KindString, FixedWidth: 12},
		storage.Column{Name: "custstate", Kind: storage.KindString, FixedWidth: 2},
		storage.Column{Name: "loyalty", Kind: storage.KindInt, Nullable: true},
	)
	segs := []string{"CONSUMER", "CORPORATE", "SMB", "GOV"}
	rows := make([]storage.Row, n)
	for i := range rows {
		loyalty := storage.NullValue(storage.KindInt)
		if rng.Intn(4) == 0 {
			loyalty = storage.IntVal(int64(rng.Intn(5) + 1))
		}
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.StringVal(fmt.Sprintf("Cust-%06d", i)),
			storage.StringVal(segs[rng.Intn(len(segs))]),
			storage.StringVal(usStates[rng.Intn(len(usStates))]),
			loyalty,
		}
	}
	return &catalog.Table{Name: "customers", Schema: sch, Rows: rows, PK: []string{"custid"}}
}

func genSalesProducts(rng *rand.Rand, n int) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "prodid", Kind: storage.KindInt},
		storage.Column{Name: "prodname", Kind: storage.KindString, FixedWidth: 24},
		storage.Column{Name: "category", Kind: storage.KindString, FixedWidth: 16},
		storage.Column{Name: "brand", Kind: storage.KindString, FixedWidth: 12},
		storage.Column{Name: "listprice", Kind: storage.KindFloat},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.StringVal(fmt.Sprintf("Product-%05d", i)),
			storage.StringVal(categories[rng.Intn(len(categories))]),
			storage.StringVal(fmt.Sprintf("Brand-%02d", rng.Intn(30))),
			storage.FloatVal(float64(rng.Intn(50000))/100 + 1),
		}
	}
	return &catalog.Table{Name: "products", Schema: sch, Rows: rows, PK: []string{"prodid"}}
}

func genSalesStores(rng *rand.Rand, n int) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "storeid", Kind: storage.KindInt},
		storage.Column{Name: "city", Kind: storage.KindString, FixedWidth: 16},
		storage.Column{Name: "storestate", Kind: storage.KindString, FixedWidth: 2},
		storage.Column{Name: "region", Kind: storage.KindString, FixedWidth: 8},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.StringVal(cities[rng.Intn(len(cities))]),
			storage.StringVal(usStates[rng.Intn(len(usStates))]),
			storage.StringVal(regions4[rng.Intn(len(regions4))]),
		}
	}
	return &catalog.Table{Name: "stores", Schema: sch, Rows: rows, PK: []string{"storeid"}}
}

func genSalesFact(rng *rand.Rand, cfg SalesConfig, nCust, nProd, nStore int) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "salesid", Kind: storage.KindInt},
		storage.Column{Name: "orderdate", Kind: storage.KindDate},
		storage.Column{Name: "shipdate", Kind: storage.KindDate},
		storage.Column{Name: "custid", Kind: storage.KindInt},
		storage.Column{Name: "prodid", Kind: storage.KindInt},
		storage.Column{Name: "storeid", Kind: storage.KindInt},
		storage.Column{Name: "state", Kind: storage.KindString, FixedWidth: 2},
		storage.Column{Name: "channel", Kind: storage.KindString, FixedWidth: 8},
		storage.Column{Name: "qty", Kind: storage.KindInt},
		storage.Column{Name: "price", Kind: storage.KindFloat},
		storage.Column{Name: "discount", Kind: storage.KindFloat},
		storage.Column{Name: "tax", Kind: storage.KindFloat},
		storage.Column{Name: "promo", Kind: storage.KindString, FixedWidth: 10, Nullable: true},
		storage.Column{Name: "note", Kind: storage.KindString},
	)
	cz := NewZipf(rng, nCust, cfg.Zipf)
	pz := NewZipf(rng, nProd, cfg.Zipf)
	stz := NewZipf(rng, len(usStates), cfg.Zipf)
	const lo, hi = 12000, 13500 // ~2002-2006
	rows := make([]storage.Row, cfg.FactRows)
	for i := range rows {
		// Order dates arrive roughly in insertion order (a real fact table
		// property that makes date columns cluster within pages).
		od := int64(lo + i*(hi-lo)/cfg.FactRows + rng.Intn(15))
		promo := storage.NullValue(storage.KindString)
		if p := promoCodes[rng.Intn(len(promoCodes))]; p != "NONE" {
			promo = storage.StringVal(p)
		}
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.DateVal(od),
			storage.DateVal(od + int64(rng.Intn(20)+1)),
			storage.IntVal(int64(cz.Next())),
			storage.IntVal(int64(pz.Next())),
			storage.IntVal(int64(rng.Intn(nStore))),
			storage.StringVal(usStates[stz.Next()]),
			storage.StringVal(channels[rng.Intn(len(channels))]),
			storage.IntVal(int64(rng.Intn(9) + 1)),
			storage.FloatVal(float64(rng.Intn(100000)) / 100),
			storage.FloatVal(float64(rng.Intn(6)) * 0.05),
			storage.FloatVal(float64(rng.Intn(4)) * 0.02),
			promo,
			storage.StringVal(comment(rng, 3)),
		}
	}
	return &catalog.Table{
		Name: "sales", Schema: sch, Rows: rows, PK: []string{"salesid"}, Fact: true,
		FKs: []catalog.FK{
			{Col: "custid", RefTable: "customers", RefCol: "custid"},
			{Col: "prodid", RefTable: "products", RefCol: "prodid"},
			{Col: "storeid", RefTable: "stores", RefCol: "storeid"},
		},
	}
}
