// Command cadb-datagen generates one of the synthetic databases and prints
// its schema, per-table statistics and per-method compressibility — useful
// for sanity-checking the generators the experiments run on.
//
// Usage:
//
//	cadb-datagen -db tpch -rows 10000 -zipf 1
//	cadb-datagen -db sales
//	cadb-datagen -db tpch -chunk -rows 10000000            # out-of-core stream
//	cadb-datagen -db tpch -chunk -rows 10000000 -spill f.seg -method page
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cadb"
	"cadb/internal/compress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// methodNames lists every -method value: NONE plus compress.Methods.
func methodNames() string {
	names := []string{compress.None.String()}
	for _, m := range compress.Methods {
		names = append(names, m.String())
	}
	return strings.Join(names, " | ")
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
		chunk  = fs.Bool("chunk", false, "stream the fact table out-of-core in fixed-size blocks instead of materializing the database (tpch | sales)")
		spill  = fs.String("spill", "", "with -chunk: also stream the rows through a SegmentWriter into a segment file at this path")
		method = fs.String("method", "NONE", "with -chunk -spill: compression method for the spilled segment ("+methodNames()+", any case)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *chunk {
		if err := runChunked(stdout, *dbName, *rows, *zipf, *seed, *spill, *method); err != nil {
			fmt.Fprintln(stderr, "cadb-datagen:", err)
			return 1
		}
		return 0
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
			fmt.Fprintf(stdout, "  %s=%.2f", m, compress.Fraction(t.Schema, t.Rows, m))
		}
		fmt.Fprint(stdout, "\n\n")
	}
	return 0
}

// runChunked streams the fact table block by block — never holding more than
// one block (plus, when spilling, one tentative page) in memory — and prints
// generation throughput; with -spill the stream lands in an on-disk segment.
func runChunked(stdout io.Writer, dbName string, rows int, zipf float64, seed int64, spill, method string) error {
	src, err := cadb.NewChunkedSource(dbName, rows, zipf, seed)
	if err != nil {
		return err
	}
	var w *cadb.SegmentWriter
	var m cadb.CompressionMethod
	if spill != "" {
		if m, err = compress.ParseMethod(method); err != nil {
			return fmt.Errorf("-method: %w (want %s)", err, methodNames())
		}
		if w, err = cadb.NewChunkedSegmentWriter(spill, src, m); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "chunked %s fact: %d rows in %d blocks of %d\n", dbName, src.Rows(), src.NumBlocks(), cadb.ChunkedBlockRows)
	fmt.Fprintf(stdout, "  schema: %s\n", src.Schema())
	start := time.Now()
	var streamed int64
	for b := src.NextBlock(); b != nil; b = src.NextBlock() {
		streamed += int64(len(b))
		if w != nil {
			if err := w.Append(b); err != nil {
				w.Abort()
				return err
			}
		}
	}
	wall := time.Since(start)
	fmt.Fprintf(stdout, "  streamed %d rows in %.2fs (%.0f rows/s)\n", streamed, wall.Seconds(), float64(streamed)/wall.Seconds())
	if w != nil {
		seg, err := w.Finish(cadb.NewBufferPool(32 << 20))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  spilled to %s: %d pages, %.2f MB on disk (%s)\n",
			spill, seg.NumPages(), float64(seg.DiskBytes())/(1<<20), m)
		// The file is the product: close its handle, keep it on disk.
		return seg.ReleaseBacking()
	}
	return nil
}
