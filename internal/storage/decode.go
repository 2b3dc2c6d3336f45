package storage

// This file is the column-selective half of the codec contract: the decode
// spec an access path compiles into a PageDecoder, the batch each page gives
// back, and the I/O counters every segment-backed execution reports.
// Predicates are expressed against column ordinals with bounds already
// coerced to the column kind, so codecs can evaluate them without knowing
// anything about query syntax or name resolution.

// IOStats counts the physical work of a segment-backed execution.
type IOStats struct {
	// PageReads is the number of physical page accesses (an overflow run
	// counts once per page; a page re-read by a later RID batch counts
	// again).
	PageReads int64
	// PagesDecoded is the number of pages run through a codec (cache hits
	// within one statement don't decode twice).
	PagesDecoded int64
	// TuplesDecoded is the number of rows materialized by those decodes.
	TuplesDecoded int64
	// ColumnsDecoded is the number of per-page column payloads materialized:
	// a full decode of a page with C columns counts C, a selective decode
	// counts only the columns actually evaluated or reconstructed.
	ColumnsDecoded int64
	// PoolHits counts page fetches served from the buffer pool without disk
	// I/O. Zero for in-memory (unspilled) segments.
	PoolHits int64
	// PoolMisses counts page fetches that had to load from disk.
	PoolMisses int64
	// BytesRead is the payload bytes loaded from disk on pool misses and
	// prefetches — the statement's actual I/O volume under the disk-backed
	// path.
	BytesRead int64
	// PoolPrefetched counts pages speculatively loaded by readahead on this
	// statement's behalf (each later fetch of such a page is a PoolHit, not a
	// PoolMiss; prefetched bytes are in BytesRead).
	PoolPrefetched int64
}

// Add accumulates another stats bucket.
func (io *IOStats) Add(o IOStats) {
	io.PageReads += o.PageReads
	io.PagesDecoded += o.PagesDecoded
	io.TuplesDecoded += o.TuplesDecoded
	io.ColumnsDecoded += o.ColumnsDecoded
	io.PoolHits += o.PoolHits
	io.PoolMisses += o.PoolMisses
	io.BytesRead += o.BytesRead
	io.PoolPrefetched += o.PoolPrefetched
}

// PredOp enumerates the comparison operators a pushed-down predicate can
// carry. The set mirrors workload.CmpOp; workload.Predicate.Lower translates
// between them when it compiles a predicate against a concrete schema.
type PredOp uint8

const (
	PredEq PredOp = iota
	PredNe
	PredLt
	PredLe
	PredGt
	PredGe
	PredBetween
)

// ColPredicate is a comparison against one column, resolved to an ordinal
// with bounds pre-coerced to the column kind. Lo is the operand for every
// operator; Hi is used only by PredBetween.
type ColPredicate struct {
	Col    int
	Op     PredOp
	Lo, Hi Value
}

// Matches evaluates the predicate against a single value: NULL never
// satisfies any operator (SQL three-valued logic), and bounds are compared
// with Value.Compare. It is the one predicate evaluator: codecs, cursors,
// overlays, the post-join filter and the writes' WHERE all test through it.
//
// The receiver is a pointer: a predicate is 96 bytes, and it is tested once
// per value a filter reads.
func (p *ColPredicate) Matches(v Value) bool {
	if v.Null {
		return false
	}
	switch p.Op {
	case PredEq:
		return v.Compare(p.Lo) == 0
	case PredNe:
		return v.Compare(p.Lo) != 0
	case PredLt:
		return v.Compare(p.Lo) < 0
	case PredLe:
		return v.Compare(p.Lo) <= 0
	case PredGt:
		return v.Compare(p.Lo) > 0
	case PredGe:
		return v.Compare(p.Lo) >= 0
	case PredBetween:
		return v.Compare(p.Lo) >= 0 && v.Compare(p.Hi) <= 0
	}
	return false
}

// MatchesRow reports whether a row satisfies every predicate (AND
// semantics), each predicate reading the value at its ordinal.
func MatchesRow(preds []ColPredicate, r Row) bool {
	for i := range preds {
		if p := &preds[i]; !p.Matches(r[p.Col]) {
			return false
		}
	}
	return true
}

// DecodeSpec tells a codec which columns of a page to reconstruct and which
// predicates to apply while doing so. A row is returned only if it passes
// every predicate.
type DecodeSpec struct {
	// Needed lists the column ordinals to materialize, strictly ascending.
	// Returned rows have exactly len(Needed) values, in this order.
	Needed []int
	// Preds are the pushed-down predicates; all must hold (AND semantics).
	Preds []ColPredicate
}

// DecodedPage is the batch a column-selective decode returns: the surviving
// rows (projected onto spec.Needed), the page-local slot each row came from,
// and the decode work performed.
type DecodedPage struct {
	Rows  []Row
	Slots []int
	// TuplesDecoded is the number of rows materialized (== len(Rows)).
	TuplesDecoded int64
	// ColumnsDecoded is the number of per-page column payloads the codec had
	// to run through value decoding (predicate columns and needed columns
	// count once each; columns decided from page metadata alone don't).
	ColumnsDecoded int64
}

// AllOrdinals returns [0, 1, ..., len(s.Columns)-1], the spec.Needed of a
// non-selective decode.
func (s *Schema) AllOrdinals() []int {
	out := make([]int, len(s.Columns))
	for i := range out {
		out[i] = i
	}
	return out
}

// FallbackDecodeColumns implements PageDecoder.Decode on top of a full page
// decode: slot filter, predicates and projection applied after the fact,
// counters charging the full decode (every row, every column). It is the
// reference the codec's selective decode is tested against, and what a test
// codec without a column-selective layout answers with.
func FallbackDecodeColumns(s *Schema, full []Row, spec *DecodeSpec, slots []int) *DecodedPage {
	// A full decode materializes every row and touches every column payload
	// once per page.
	out := &DecodedPage{
		TuplesDecoded:  int64(len(full)),
		ColumnsDecoded: int64(len(s.Columns)),
	}
	si := 0
	for slot, r := range full {
		if slots != nil {
			for si < len(slots) && slots[si] < slot {
				si++
			}
			if si >= len(slots) || slots[si] != slot {
				continue
			}
		}
		ok := true
		for i := range spec.Preds {
			if p := &spec.Preds[i]; !p.Matches(r[p.Col]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		pr := make(Row, len(spec.Needed))
		for j, ci := range spec.Needed {
			pr[j] = r[ci]
		}
		out.Rows = append(out.Rows, pr)
		out.Slots = append(out.Slots, slot)
	}
	return out
}
