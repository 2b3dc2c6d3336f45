// Command cadb-datagen generates one of the synthetic databases and prints
// its schema, per-table statistics and per-method compressibility — useful
// for sanity-checking the generators the experiments run on.
//
// Usage:
//
//	cadb-datagen -db tpch -rows 10000 -zipf 1
//	cadb-datagen -db sales
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cadb"
	"cadb/internal/compress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and exit code, so flag handling is
// testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cadb-datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbName = fs.String("db", "tpch", "database: tpch | sales | tpcds")
		rows   = fs.Int("rows", 10000, "fact-table row count")
		zipf   = fs.Float64("zipf", 0, "value skew Z (Zipf exponent over fact-table value choices)")
		seed   = fs.Int64("seed", 42, "generator seed")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var db *cadb.Database
	switch *dbName {
	case "tpch":
		db = cadb.NewTPCH(cadb.TPCHConfig{LineitemRows: *rows, Zipf: *zipf, Seed: *seed})
	case "sales":
		db = cadb.NewSales(cadb.SalesConfig{FactRows: *rows, Zipf: *zipf, Seed: *seed})
	case "tpcds":
		db = cadb.NewTPCDS(cadb.TPCDSConfig{StoreSalesRows: *rows, Seed: *seed})
	default:
		fmt.Fprintf(stderr, "cadb-datagen: unknown db %q\n", *dbName)
		return 1
	}

	fmt.Fprintf(stdout, "database %s: %d tables, %.2f MB total heap\n\n", db.Name, len(db.Tables()), float64(db.TotalHeapBytes())/(1<<20))
	for _, t := range db.Tables() {
		fact := ""
		if t.Fact {
			fact = " [fact]"
		}
		fmt.Fprintf(stdout, "%s%s: %d rows, %d pages\n", t.Name, fact, t.RowCount(), t.HeapPages())
		fmt.Fprintf(stdout, "  schema: %s\n", t.Schema)
		st := t.Stats()
		for _, c := range t.Schema.Columns {
			cs := st.Col(c.Name)
			fmt.Fprintf(stdout, "  %-18s distinct=%-8d nulls=%-6d avgwidth=%.1f\n", c.Name, cs.Distinct, cs.NullCount, cs.AvgWidth)
		}
		fmt.Fprintf(stdout, "  compressibility (CF = compressed/uncompressed):")
		for _, m := range compress.Methods {
			cf, err := compress.Fraction(t.Schema, t.Rows, m)
			if err != nil {
				fmt.Fprintf(stderr, "cadb-datagen: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "  %s=%.2f", m, cf)
		}
		fmt.Fprint(stdout, "\n\n")
	}
	return 0
}
