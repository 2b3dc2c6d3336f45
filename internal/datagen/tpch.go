package datagen

import (
	"fmt"
	"math/rand"

	"cadb/internal/catalog"
	"cadb/internal/storage"
)

// TPCHConfig sizes and skews the TPC-H-shaped database.
type TPCHConfig struct {
	// LineitemRows is the target LINEITEM row count; the other tables scale
	// proportionally to their TPC-H ratios.
	LineitemRows int
	// Zipf is the value-skew exponent (the paper's Z parameter: 0, 1, 3).
	Zipf float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultTPCH is a laptop-scale configuration.
var DefaultTPCH = TPCHConfig{LineitemRows: 30000, Zipf: 0, Seed: 42}

var (
	regionNames   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	segments      = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers    = []string{"SM CASE", "SM BOX", "LG CASE", "LG BOX", "MED BAG", "JUMBO JAR"}
	brands        = []string{"Brand#11", "Brand#12", "Brand#21", "Brand#23", "Brand#31", "Brand#33", "Brand#41", "Brand#45"}
	types         = []string{"STANDARD ANODIZED TIN", "SMALL PLATED COPPER", "MEDIUM BURNISHED NICKEL", "LARGE BRUSHED STEEL", "ECONOMY POLISHED BRASS", "PROMO ANODIZED STEEL"}
	mktWords      = []string{"quick", "silent", "final", "pending", "express", "regular", "careful", "ironic", "bold", "even"}
)

// date range: 1992-01-01 .. 1998-12-01 in days since epoch.
const (
	dateLo = 8035  // ~1992-01-01
	dateHi = 10561 // ~1998-12-01
)

// NewTPCH generates the database.
func NewTPCH(cfg TPCHConfig) *catalog.Database {
	if cfg.LineitemRows <= 0 {
		cfg.LineitemRows = DefaultTPCH.LineitemRows
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := catalog.NewDatabase(fmt.Sprintf("tpch-z%g", cfg.Zipf))

	// TPC-H row ratios per 6M lineitems at SF1: orders 1.5M, customer 150K,
	// part 200K, supplier 10K, partsupp 800K.
	li := cfg.LineitemRows
	nOrders := maxInt(li/4, 10)
	nCust := maxInt(li/40, 10)
	nPart := maxInt(li/30, 10)
	nSupp := maxInt(li/600, 5)
	nPartSupp := nPart * 2

	db.AddTable(genRegion())
	db.AddTable(genNation(rng))
	db.AddTable(genSupplier(rng, nSupp))
	db.AddTable(genCustomer(rng, nCust, cfg.Zipf))
	db.AddTable(genPart(rng, nPart))
	db.AddTable(genPartSupp(rng, nPartSupp, nPart, nSupp))
	orders := genOrders(rng, nOrders, nCust, cfg.Zipf)
	db.AddTable(orders)
	db.AddTable(genLineitem(rng, li, orders, nPart, nSupp, cfg.Zipf))
	return db
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func comment(rng *rand.Rand, words int) string {
	s := ""
	for i := 0; i < words; i++ {
		if i > 0 {
			s += " "
		}
		s += mktWords[rng.Intn(len(mktWords))]
	}
	return s
}

func genRegion() *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "r_regionkey", Kind: storage.KindInt},
		storage.Column{Name: "r_name", Kind: storage.KindString, FixedWidth: 12},
		storage.Column{Name: "r_comment", Kind: storage.KindString},
	)
	rows := make([]storage.Row, len(regionNames))
	for i, n := range regionNames {
		rows[i] = storage.Row{storage.IntVal(int64(i)), storage.StringVal(n), storage.StringVal("region " + n)}
	}
	return &catalog.Table{Name: "region", Schema: sch, Rows: rows, PK: []string{"r_regionkey"}}
}

func genNation(rng *rand.Rand) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "n_nationkey", Kind: storage.KindInt},
		storage.Column{Name: "n_name", Kind: storage.KindString, FixedWidth: 15},
		storage.Column{Name: "n_regionkey", Kind: storage.KindInt},
		storage.Column{Name: "n_comment", Kind: storage.KindString},
	)
	names := []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	rows := make([]storage.Row, len(names))
	for i, n := range names {
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.StringVal(n),
			storage.IntVal(int64(i % 5)),
			storage.StringVal(comment(rng, 3)),
		}
	}
	return &catalog.Table{
		Name: "nation", Schema: sch, Rows: rows, PK: []string{"n_nationkey"},
		FKs: []catalog.FK{{Col: "n_regionkey", RefTable: "region", RefCol: "r_regionkey"}},
	}
}

func genSupplier(rng *rand.Rand, n int) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "s_suppkey", Kind: storage.KindInt},
		storage.Column{Name: "s_name", Kind: storage.KindString, FixedWidth: 18},
		storage.Column{Name: "s_nationkey", Kind: storage.KindInt},
		storage.Column{Name: "s_phone", Kind: storage.KindString, FixedWidth: 15},
		storage.Column{Name: "s_acctbal", Kind: storage.KindFloat},
		storage.Column{Name: "s_comment", Kind: storage.KindString},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.StringVal(fmt.Sprintf("Supplier#%05d", i)),
			storage.IntVal(int64(rng.Intn(25))),
			storage.StringVal(fmt.Sprintf("%02d-%03d-%03d", rng.Intn(35)+10, rng.Intn(1000), rng.Intn(1000))),
			storage.FloatVal(float64(rng.Intn(1000000))/100 - 999),
			storage.StringVal(comment(rng, 4)),
		}
	}
	return &catalog.Table{
		Name: "supplier", Schema: sch, Rows: rows, PK: []string{"s_suppkey"},
		FKs: []catalog.FK{{Col: "s_nationkey", RefTable: "nation", RefCol: "n_nationkey"}},
	}
}

func genCustomer(rng *rand.Rand, n int, z float64) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "c_custkey", Kind: storage.KindInt},
		storage.Column{Name: "c_name", Kind: storage.KindString, FixedWidth: 18},
		storage.Column{Name: "c_nationkey", Kind: storage.KindInt},
		storage.Column{Name: "c_phone", Kind: storage.KindString, FixedWidth: 15},
		storage.Column{Name: "c_acctbal", Kind: storage.KindFloat},
		storage.Column{Name: "c_mktsegment", Kind: storage.KindString, FixedWidth: 10},
		storage.Column{Name: "c_comment", Kind: storage.KindString},
	)
	nz := NewZipf(rng, 25, z)
	sz := NewZipf(rng, len(segments), z)
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.StringVal(fmt.Sprintf("Customer#%06d", i)),
			storage.IntVal(int64(nz.Next())),
			storage.StringVal(fmt.Sprintf("%02d-%03d-%03d", rng.Intn(35)+10, rng.Intn(1000), rng.Intn(1000))),
			storage.FloatVal(float64(rng.Intn(1000000))/100 - 999),
			storage.StringVal(segments[sz.Next()]),
			storage.StringVal(comment(rng, 5)),
		}
	}
	return &catalog.Table{
		Name: "customer", Schema: sch, Rows: rows, PK: []string{"c_custkey"},
		FKs: []catalog.FK{{Col: "c_nationkey", RefTable: "nation", RefCol: "n_nationkey"}},
	}
}

func genPart(rng *rand.Rand, n int) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "p_partkey", Kind: storage.KindInt},
		storage.Column{Name: "p_name", Kind: storage.KindString, FixedWidth: 30},
		storage.Column{Name: "p_mfgr", Kind: storage.KindString, FixedWidth: 25},
		storage.Column{Name: "p_brand", Kind: storage.KindString, FixedWidth: 10},
		storage.Column{Name: "p_type", Kind: storage.KindString, FixedWidth: 25},
		storage.Column{Name: "p_size", Kind: storage.KindInt},
		storage.Column{Name: "p_container", Kind: storage.KindString, FixedWidth: 10},
		storage.Column{Name: "p_retailprice", Kind: storage.KindFloat},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		mfgr := rng.Intn(5) + 1
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.StringVal(fmt.Sprintf("%s %s part", mktWords[rng.Intn(len(mktWords))], mktWords[rng.Intn(len(mktWords))])),
			storage.StringVal(fmt.Sprintf("Manufacturer#%d", mfgr)),
			storage.StringVal(brands[rng.Intn(len(brands))]),
			storage.StringVal(types[rng.Intn(len(types))]),
			storage.IntVal(int64(rng.Intn(50) + 1)),
			storage.StringVal(containers[rng.Intn(len(containers))]),
			storage.FloatVal(900 + float64(i%200) + float64(rng.Intn(100))/100),
		}
	}
	return &catalog.Table{Name: "part", Schema: sch, Rows: rows, PK: []string{"p_partkey"}}
}

func genPartSupp(rng *rand.Rand, n, nPart, nSupp int) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "ps_partkey", Kind: storage.KindInt},
		storage.Column{Name: "ps_suppkey", Kind: storage.KindInt},
		storage.Column{Name: "ps_availqty", Kind: storage.KindInt},
		storage.Column{Name: "ps_supplycost", Kind: storage.KindFloat},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(i % nPart)),
			storage.IntVal(int64(rng.Intn(nSupp))),
			storage.IntVal(int64(rng.Intn(10000))),
			storage.FloatVal(float64(rng.Intn(100000)) / 100),
		}
	}
	return &catalog.Table{
		Name: "partsupp", Schema: sch, Rows: rows, PK: []string{"ps_partkey", "ps_suppkey"},
		FKs: []catalog.FK{
			{Col: "ps_partkey", RefTable: "part", RefCol: "p_partkey"},
			{Col: "ps_suppkey", RefTable: "supplier", RefCol: "s_suppkey"},
		},
	}
}

func genOrders(rng *rand.Rand, n, nCust int, z float64) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "o_orderkey", Kind: storage.KindInt},
		storage.Column{Name: "o_custkey", Kind: storage.KindInt},
		storage.Column{Name: "o_orderstatus", Kind: storage.KindString, FixedWidth: 1},
		storage.Column{Name: "o_totalprice", Kind: storage.KindFloat},
		storage.Column{Name: "o_orderdate", Kind: storage.KindDate},
		storage.Column{Name: "o_orderpriority", Kind: storage.KindString, FixedWidth: 15},
		storage.Column{Name: "o_clerk", Kind: storage.KindString, FixedWidth: 15},
		storage.Column{Name: "o_shippriority", Kind: storage.KindInt},
		storage.Column{Name: "o_comment", Kind: storage.KindString},
	)
	cz := NewZipf(rng, nCust, z)
	pz := NewZipf(rng, len(priorities), z)
	statuses := []string{"F", "O", "P"}
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.IntVal(int64(cz.Next())),
			storage.StringVal(statuses[rng.Intn(3)]),
			storage.FloatVal(1000 + float64(rng.Intn(30000000))/100),
			storage.DateVal(int64(dateLo + rng.Intn(dateHi-dateLo))),
			storage.StringVal(priorities[pz.Next()]),
			storage.StringVal(fmt.Sprintf("Clerk#%05d", rng.Intn(1000))),
			storage.IntVal(0),
			storage.StringVal(comment(rng, 6)),
		}
	}
	return &catalog.Table{
		Name: "orders", Schema: sch, Rows: rows, PK: []string{"o_orderkey"}, Fact: true,
		FKs: []catalog.FK{{Col: "o_custkey", RefTable: "customer", RefCol: "c_custkey"}},
	}
}

func genLineitem(rng *rand.Rand, n int, orders *catalog.Table, nPart, nSupp int, z float64) *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "l_orderkey", Kind: storage.KindInt},
		storage.Column{Name: "l_partkey", Kind: storage.KindInt},
		storage.Column{Name: "l_suppkey", Kind: storage.KindInt},
		storage.Column{Name: "l_linenumber", Kind: storage.KindInt},
		storage.Column{Name: "l_quantity", Kind: storage.KindInt},
		storage.Column{Name: "l_extendedprice", Kind: storage.KindFloat},
		storage.Column{Name: "l_discount", Kind: storage.KindFloat},
		storage.Column{Name: "l_tax", Kind: storage.KindFloat},
		storage.Column{Name: "l_returnflag", Kind: storage.KindString, FixedWidth: 1},
		storage.Column{Name: "l_linestatus", Kind: storage.KindString, FixedWidth: 1},
		storage.Column{Name: "l_shipdate", Kind: storage.KindDate},
		storage.Column{Name: "l_commitdate", Kind: storage.KindDate},
		storage.Column{Name: "l_receiptdate", Kind: storage.KindDate},
		storage.Column{Name: "l_shipinstruct", Kind: storage.KindString, FixedWidth: 25},
		storage.Column{Name: "l_shipmode", Kind: storage.KindString, FixedWidth: 10},
		storage.Column{Name: "l_comment", Kind: storage.KindString},
	)
	nOrders := len(orders.Rows)
	odateIdx := orders.Schema.ColIndex("o_orderdate")
	pz := NewZipf(rng, nPart, z)
	sz := NewZipf(rng, nSupp, z)
	mz := NewZipf(rng, len(shipModes), z)
	rows := make([]storage.Row, n)
	for i := range rows {
		ok := i * nOrders / n // spread line items across orders, keeping l_orderkey correlated with position
		odate := orders.Rows[ok][odateIdx].Int
		ship := odate + int64(rng.Intn(120)+1)
		rf := "N"
		if ship < dateLo+(dateHi-dateLo)/2 && rng.Intn(2) == 0 {
			rf = []string{"A", "R"}[rng.Intn(2)]
		}
		ls := "O"
		if ship < dateLo+(dateHi-dateLo)*2/3 {
			ls = "F"
		}
		rows[i] = storage.Row{
			storage.IntVal(int64(ok)),
			storage.IntVal(int64(pz.Next())),
			storage.IntVal(int64(sz.Next())),
			storage.IntVal(int64(i%7 + 1)),
			storage.IntVal(int64(rng.Intn(50) + 1)),
			storage.FloatVal(float64(rng.Intn(9000000))/100 + 900),
			storage.FloatVal(float64(rng.Intn(11)) / 100),
			storage.FloatVal(float64(rng.Intn(9)) / 100),
			storage.StringVal(rf),
			storage.StringVal(ls),
			storage.DateVal(ship),
			storage.DateVal(odate + int64(rng.Intn(90)+1)),
			storage.DateVal(ship + int64(rng.Intn(30)+1)),
			storage.StringVal(shipInstructs[rng.Intn(len(shipInstructs))]),
			storage.StringVal(shipModes[mz.Next()]),
			storage.StringVal(comment(rng, 4)),
		}
	}
	return &catalog.Table{
		Name: "lineitem", Schema: sch, Rows: rows, PK: []string{"l_orderkey", "l_linenumber"}, Fact: true,
		FKs: []catalog.FK{
			{Col: "l_orderkey", RefTable: "orders", RefCol: "o_orderkey"},
			{Col: "l_partkey", RefTable: "part", RefCol: "p_partkey"},
			{Col: "l_suppkey", RefTable: "supplier", RefCol: "s_suppkey"},
		},
	}
}
