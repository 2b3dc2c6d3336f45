package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"cadb/internal/storage"
)

// This file reads PAGE column sections, the one section format with
// per-page metadata, which enables three shortcuts, in increasing cost:
//
//  1. null bitmaps and the common-prefix header can decide a predicate for
//     the whole page without touching the values region;
//  2. predicates are evaluated once per local-dictionary entry and row
//     codes are tested against the matching-code set, instead of decoding
//     every row;
//  3. only the needed columns of the surviving rows are materialized, and
//     dictionary entries decode at most once per page.

// pageColumn is one parsed column section of a PAGE payload. All slices
// alias the payload; nothing is decoded yet.
type pageColumn struct {
	nulls    []byte   // null bitmap (bit j = row j is NULL)
	prefix   []byte   // common prefix of the encoded non-null values
	dict     [][]byte // local dictionary suffixes
	codeSize int      // 1 or 2 bytes per dictionary code
	coded    []byte   // dictionary bitmap (bit j = row j stored as a code)
	values   []byte   // the row-order values region (codes and literals)
}

func (col *pageColumn) isNull(j int) bool  { return col.nulls[j/8]&(1<<(uint(j)%8)) != 0 }
func (col *pageColumn) isCoded(j int) bool { return col.coded[j/8]&(1<<(uint(j)%8)) != 0 }

// parsePageColumn splits an n-row column section into its parts, walking the
// values region only to bounds-check it (no value decoding).
func parsePageColumn(payload []byte, n int) (pageColumn, error) {
	var col pageColumn
	bitmapLen := (n + 7) / 8
	if len(payload) < bitmapLen {
		return col, fmt.Errorf("compress: short PAGE null bitmap")
	}
	col.nulls = payload[:bitmapLen]
	payload = payload[bitmapLen:]
	pn, adv, err := readLenPrefix(payload)
	if err != nil {
		return col, err
	}
	payload = payload[adv:]
	if len(payload) < pn {
		return col, fmt.Errorf("compress: short PAGE prefix")
	}
	col.prefix = payload[:pn]
	payload = payload[pn:]
	if len(payload) < 2 {
		return col, fmt.Errorf("compress: short PAGE dictionary count")
	}
	dictCount := int(binary.BigEndian.Uint16(payload[:2]))
	payload = payload[2:]
	col.dict = make([][]byte, dictCount)
	for i := range col.dict {
		dn, adv, err := readLenPrefix(payload)
		if err != nil {
			return col, err
		}
		payload = payload[adv:]
		if len(payload) < dn {
			return col, fmt.Errorf("compress: short PAGE dictionary entry")
		}
		col.dict[i] = payload[:dn]
		payload = payload[dn:]
	}
	col.codeSize = 1
	if dictCount > 255 {
		col.codeSize = 2
	}
	if len(payload) < bitmapLen {
		return col, fmt.Errorf("compress: short PAGE dictionary bitmap")
	}
	col.coded = payload[:bitmapLen]
	payload = payload[bitmapLen:]
	at := 0
	for j := 0; j < n; j++ {
		if col.isNull(j) {
			continue
		}
		if col.isCoded(j) {
			if len(payload) < at+col.codeSize {
				return col, fmt.Errorf("compress: short PAGE code")
			}
			at += col.codeSize
			continue
		}
		ln, adv, err := readLenPrefix(payload[at:])
		if err != nil {
			return col, err
		}
		if len(payload) < at+adv+ln {
			return col, fmt.Errorf("compress: short PAGE literal")
		}
		at += adv + ln
	}
	col.values = payload[:at]
	return col, nil
}

// visitValues walks the values region in row order, calling visit once per
// non-null row with either a dictionary code (code >= 0, lit nil) or the
// literal suffix bytes (code < 0).
func (col *pageColumn) visitValues(n int, visit func(j, code int, lit []byte) error) error {
	vals := col.values
	for j := 0; j < n; j++ {
		if col.isNull(j) {
			continue
		}
		if col.isCoded(j) {
			code := int(vals[0])
			if col.codeSize == 2 {
				code = code<<8 | int(vals[1])
			}
			vals = vals[col.codeSize:]
			if code >= len(col.dict) {
				return fmt.Errorf("compress: PAGE code %d out of range", code)
			}
			if err := visit(j, code, nil); err != nil {
				return err
			}
			continue
		}
		ln, adv, err := readLenPrefix(vals)
		if err != nil {
			return err
		}
		if err := visit(j, -1, vals[adv:adv+ln]); err != nil {
			return err
		}
		vals = vals[adv+ln:]
	}
	return nil
}

// decodePrefixed reconstructs one value from the page prefix plus a suffix,
// reusing scratch for the concatenation.
func decodePrefixed(c storage.Column, prefix, suffix, scratch []byte) (storage.Value, []byte, error) {
	if len(prefix) == 0 {
		v, err := decodeValueBytes(c, suffix)
		return v, scratch, err
	}
	scratch = append(scratch[:0], prefix...)
	scratch = append(scratch, suffix...)
	v, err := decodeValueBytes(c, scratch)
	return v, scratch, err
}

// predOutcome is a page-level predicate verdict derived from metadata alone.
type predOutcome int

const (
	outUnknown   predOutcome = iota
	outAllMatch              // every non-null row satisfies the predicate
	outNoneMatch             // no row satisfies the predicate
)

// prefixPredOutcome decides a predicate for the whole page from the common
// prefix when possible. NULL bounds resolve identically for every non-null
// value (NULLs sort first under Value.Compare), so they decide the page for
// any kind. Beyond that: minimal zigzag/bit encodings are canonical —
// byte(in)equality decides value (in)equality for ints and dates — but not
// order-preserving, so integer ranges stay unknown; string values are
// stored as their comparison bytes, so the shared prefix bounds every value
// from below and ranges can often be decided outright.
func prefixPredOutcome(c storage.Column, p storage.ColPredicate, prefix []byte) predOutcome {
	switch p.Op {
	case storage.PredEq, storage.PredLt, storage.PredLe:
		if p.Lo.Null {
			return outNoneMatch
		}
	case storage.PredNe, storage.PredGt, storage.PredGe:
		if p.Lo.Null {
			return outAllMatch
		}
	case storage.PredBetween:
		if p.Hi.Null {
			return outNoneMatch
		}
		if p.Lo.Null {
			return prefixPredOutcome(c, storage.ColPredicate{Op: storage.PredLe, Lo: p.Hi}, prefix)
		}
	}
	// The byte-level analysis below is only sound when the bound actually
	// has the column kind (the executor pre-coerces; stay safe if not).
	if p.Lo.Kind != c.Kind || (p.Op == storage.PredBetween && p.Hi.Kind != c.Kind) {
		return outUnknown
	}
	switch c.Kind {
	case storage.KindInt, storage.KindDate:
		if len(prefix) == 0 {
			return outUnknown
		}
		switch p.Op {
		case storage.PredEq:
			if !bytes.HasPrefix(valueBytes(c, p.Lo, nil), prefix) {
				return outNoneMatch
			}
		case storage.PredNe:
			if !bytes.HasPrefix(valueBytes(c, p.Lo, nil), prefix) {
				return outAllMatch
			}
		}
		return outUnknown
	case storage.KindString:
		pre := string(prefix)
		switch p.Op {
		case storage.PredEq:
			if !strings.HasPrefix(p.Lo.Str, pre) {
				return outNoneMatch
			}
		case storage.PredNe:
			if !strings.HasPrefix(p.Lo.Str, pre) {
				return outAllMatch
			}
		case storage.PredLt:
			return strLowOutcome(pre, p.Lo.Str, false)
		case storage.PredLe:
			return strLowOutcome(pre, p.Lo.Str, true)
		case storage.PredGt:
			return strHighOutcome(pre, p.Lo.Str, false)
		case storage.PredGe:
			return strHighOutcome(pre, p.Lo.Str, true)
		case storage.PredBetween:
			ge := strHighOutcome(pre, p.Lo.Str, true)
			le := strLowOutcome(pre, p.Hi.Str, true)
			switch {
			case ge == outNoneMatch || le == outNoneMatch:
				return outNoneMatch
			case ge == outAllMatch && le == outAllMatch:
				return outAllMatch
			}
		}
	}
	return outUnknown
}

// strLowOutcome decides v < t (orEq: v <= t) for every page value v, using
// only the fact that each v starts with pre (so v >= pre bytewise).
func strLowOutcome(pre, t string, orEq bool) predOutcome {
	switch {
	case t < pre, t == pre && !orEq:
		return outNoneMatch // v >= pre rules every row out
	case t == pre:
		return outUnknown // v <= pre holds only for the exact-prefix value
	case !strings.HasPrefix(t, pre):
		// t > pre without extending it: the first differing byte makes every
		// prefixed value compare below t.
		return outAllMatch
	}
	return outUnknown
}

// strHighOutcome decides v > t (orEq: v >= t) for every page value v.
func strHighOutcome(pre, t string, orEq bool) predOutcome {
	switch {
	case t < pre, t == pre && orEq:
		return outAllMatch // v >= pre already clears the bound
	case t == pre:
		return outUnknown // v > pre fails only for the exact-prefix value
	case !strings.HasPrefix(t, pre):
		return outNoneMatch // every prefixed value compares below t
	}
	return outUnknown
}

// filterPageColumn narrows sel by evaluating preds against one parsed PAGE
// column section: NULL rows fail outright, the common prefix decides what it
// can for the whole page, and residual predicates evaluate once per local-
// dictionary entry with row codes tested against the matching set. Returns
// the new selection count and whether any value bytes were decoded (pages
// decided from metadata alone are free).
func filterPageColumn(c storage.Column, col *pageColumn, n int, ps []storage.ColPredicate, sel []bool, selCount int, scratch []byte) (int, []byte, bool, error) {
	// A predicated column fails every NULL row (three-valued logic) —
	// decided from the null bitmap alone.
	for j := 0; j < n; j++ {
		if sel[j] && col.isNull(j) {
			sel[j] = false
			selCount--
		}
	}
	// Try to decide each predicate from the common prefix.
	var residual []storage.ColPredicate
	none := false
	for _, p := range ps {
		switch prefixPredOutcome(c, p, col.prefix) {
		case outNoneMatch:
			none = true
		case outAllMatch:
			// Satisfied by every non-null row; nothing to evaluate.
		default:
			residual = append(residual, p)
		}
	}
	if none {
		for j := range sel {
			sel[j] = false
		}
		return 0, scratch, false, nil
	}
	if len(residual) == 0 || selCount == 0 {
		return selCount, scratch, false, nil
	}
	// Evaluate the residual predicates once per dictionary entry, then
	// test row codes against the matching set; literal suffixes decode
	// per occurrence.
	match := make([]bool, len(col.dict))
	for k, suffix := range col.dict {
		var v storage.Value
		var err error
		v, scratch, err = decodePrefixed(c, col.prefix, suffix, scratch)
		if err != nil {
			return 0, scratch, true, err
		}
		ok := true
		for _, p := range residual {
			if !p.Matches(v) {
				ok = false
				break
			}
		}
		match[k] = ok
	}
	err := col.visitValues(n, func(j, code int, lit []byte) error {
		if !sel[j] {
			return nil
		}
		if code >= 0 {
			if !match[code] {
				sel[j] = false
				selCount--
			}
			return nil
		}
		var v storage.Value
		var verr error
		v, scratch, verr = decodePrefixed(c, col.prefix, lit, scratch)
		if verr != nil {
			return verr
		}
		for _, p := range residual {
			if !p.Matches(v) {
				sel[j] = false
				selCount--
				break
			}
		}
		return nil
	})
	return selCount, scratch, true, err
}

// materializePageColumn reconstructs the selected rows' values of one parsed
// PAGE column, decoding each dictionary entry at most once, delivering them
// through set(row, value).
func materializePageColumn(c storage.Column, col *pageColumn, n int, sel []bool, set func(j int, v storage.Value), scratch []byte) ([]byte, error) {
	for j := 0; j < n; j++ {
		if sel[j] && col.isNull(j) {
			set(j, storage.NullValue(c.Kind))
		}
	}
	dictVals := make([]storage.Value, len(col.dict))
	dictDone := make([]bool, len(col.dict))
	err := col.visitValues(n, func(j, code int, lit []byte) error {
		if !sel[j] {
			return nil
		}
		var v storage.Value
		var verr error
		if code >= 0 {
			if !dictDone[code] {
				v, scratch, verr = decodePrefixed(c, col.prefix, col.dict[code], scratch)
				if verr != nil {
					return verr
				}
				dictVals[code], dictDone[code] = v, true
			}
			set(j, dictVals[code])
			return nil
		}
		v, scratch, verr = decodePrefixed(c, col.prefix, lit, scratch)
		if verr != nil {
			return verr
		}
		set(j, v)
		return nil
	})
	return scratch, err
}
