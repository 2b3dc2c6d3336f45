// Package compress implements the lossless data-compression methods the paper
// discusses (Section 2.1 and Appendix A): NULL/blank suppression (SQL
// Server's ROW compression), prefix + per-page local-dictionary encoding (SQL
// Server's PAGE compression), global dictionary encoding, and run-length
// encoding.
//
// Methods are classified as order-independent (ORD-IND) or order-dependent
// (ORD-DEP), which drives which deductions the size-estimation framework may
// apply (Section 4.2): ORD-IND methods compress to the same size regardless
// of tuple order; ORD-DEP methods are sensitive to the per-page value
// distribution.
//
// Every method here materializes real pages (the design codec, codec.go and
// colcodec.go). Sizes for tuning come from a model of those pages instead
// (DesignSizes, sizedesign.go): SampleCF compresses a sample index through it
// and extrapolates, and index.Build runs it over a full index. The model
// tracks the materialized bytes to within a few percent, which
// experiments.TestMeasuredSizesWithinTolerance pins.
package compress

import "fmt"

// Method identifies a compression method.
type Method uint8

const (
	// None stores rows in the plain uncompressed row format.
	None Method = iota
	// Row is SQL Server ROW compression: null/blank suppression and
	// variable-length encoding of fixed-width values. ORD-IND.
	Row
	// Page is SQL Server PAGE compression: ROW compression plus per-page
	// column-prefix extraction and a per-page local dictionary. ORD-DEP.
	Page
	// GlobalDict is a per-column dictionary shared by the whole index (DB2
	// style). ORD-IND.
	GlobalDict
	// RLE is run-length encoding of consecutive equal column values within a
	// page. ORD-DEP. Included for the column-store discussion in Section 8.
	RLE

	numMethods
)

// Methods lists every real compression method (excluding None).
var Methods = []Method{Row, Page, GlobalDict, RLE}

// Class partitions methods by order sensitivity.
type Class uint8

const (
	// OrderIndependent compression yields the same size for any tuple order.
	OrderIndependent Class = iota
	// OrderDependent compression is sensitive to tuple order / per-page
	// value distribution.
	OrderDependent
)

// Class returns the order-sensitivity class of the method.
func (m Method) Class() Class {
	switch m {
	case Page, RLE:
		return OrderDependent
	default:
		return OrderIndependent
	}
}

// String returns the method name used in plans and reports.
func (m Method) String() string {
	switch m {
	case None:
		return "NONE"
	case Row:
		return "ROW"
	case Page:
		return "PAGE"
	case GlobalDict:
		return "GDICT"
	case RLE:
		return "RLE"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// ParseMethod parses a method name (as produced by String).
func ParseMethod(s string) (Method, error) {
	switch s {
	case "NONE", "none":
		return None, nil
	case "ROW", "row":
		return Row, nil
	case "PAGE", "page":
		return Page, nil
	case "GDICT", "gdict":
		return GlobalDict, nil
	case "RLE", "rle":
		return RLE, nil
	}
	return None, fmt.Errorf("compress: unknown method %q", s)
}
