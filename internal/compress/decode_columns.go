package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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

// parse splits an n-row column section into its parts, walking the values
// region only to bounds-check it (no value decoding). The dictionary slice is
// reused from the previous parse.
func (col *pageColumn) parse(payload []byte, n int) error {
	bitmapLen := (n + 7) / 8
	if len(payload) < bitmapLen {
		return fmt.Errorf("compress: short PAGE null bitmap")
	}
	col.nulls = payload[:bitmapLen]
	payload = payload[bitmapLen:]
	pn, adv, err := readLenPrefix(payload)
	if err != nil {
		return err
	}
	payload = payload[adv:]
	if len(payload) < pn {
		return fmt.Errorf("compress: short PAGE prefix")
	}
	col.prefix = payload[:pn]
	payload = payload[pn:]
	if len(payload) < 2 {
		return fmt.Errorf("compress: short PAGE dictionary count")
	}
	dictCount := int(binary.BigEndian.Uint16(payload[:2]))
	payload = payload[2:]
	col.dict = col.dict[:0]
	for i := 0; i < dictCount; i++ {
		dn, adv, err := readLenPrefix(payload)
		if err != nil {
			return err
		}
		payload = payload[adv:]
		if len(payload) < dn {
			return fmt.Errorf("compress: short PAGE dictionary entry")
		}
		col.dict = append(col.dict, payload[:dn])
		payload = payload[dn:]
	}
	col.codeSize = 1
	if dictCount > 255 {
		col.codeSize = 2
	}
	if len(payload) < bitmapLen {
		return fmt.Errorf("compress: short PAGE dictionary bitmap")
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
				return fmt.Errorf("compress: short PAGE code")
			}
			at += col.codeSize
			continue
		}
		ln, adv, err := readLenPrefix(payload[at:])
		if err != nil {
			return err
		}
		if len(payload) < at+adv+ln {
			return fmt.Errorf("compress: short PAGE literal")
		}
		at += adv + ln
	}
	col.values = payload[:at]
	return nil
}

// nextValue reads row j's entry of the (parse-validated) values region at
// offset at: a dictionary code (code >= 0, lit nil) or the literal suffix
// bytes (code < 0). Callers skip NULL rows, which store nothing.
func (col *pageColumn) nextValue(j, at int) (code int, lit []byte, next int, err error) {
	vals := col.values
	if col.isCoded(j) {
		code = int(vals[at])
		if col.codeSize == 2 {
			code = code<<8 | int(vals[at+1])
		}
		if code >= len(col.dict) {
			return 0, nil, 0, fmt.Errorf("compress: PAGE code %d out of range", code)
		}
		return code, nil, at + col.codeSize, nil
	}
	ln, adv, err := readLenPrefix(vals[at:])
	if err != nil {
		return 0, nil, 0, err
	}
	return -1, vals[at+adv : at+adv+ln], at + adv + ln, nil
}

// decodePrefixed reconstructs one value from the page prefix plus a suffix,
// reusing scratch for the concatenation.
func decodePrefixed(c storage.Column, prefix, suffix, scratch []byte) (storage.Value, []byte, error) {
	if len(prefix) == 0 {
		v, err := decodeValue(c, suffix)
		return v, scratch, err
	}
	scratch = append(scratch[:0], prefix...)
	scratch = append(scratch, suffix...)
	v, err := decodeValue(c, scratch)
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

// matchesAll reports whether the value satisfies every predicate.
func matchesAll(ps []storage.ColPredicate, v storage.Value) bool {
	for i := range ps {
		if !ps[i].Matches(v) {
			return false
		}
	}
	return true
}

// filterPage narrows sel by evaluating the column's predicates against its
// parsed PAGE section: NULL rows fail outright, the common prefix decides
// what it can for the whole page, and residual predicates evaluate once per
// local-dictionary entry with row codes tested against the matching set.
// Returns the new selection count and whether any value bytes were decoded
// (pages decided from metadata alone are free).
func (d *pageDecoder) filterPage(c *decodeCol, n int, sel []bool, selCount int) (int, bool, error) {
	col := &c.page
	// A predicated column fails every NULL row (three-valued logic) —
	// decided from the null bitmap alone.
	for j := 0; j < n; j++ {
		if sel[j] && col.isNull(j) {
			sel[j] = false
			selCount--
		}
	}
	// Try to decide each predicate from the common prefix.
	residual := d.residual[:0]
	none := false
	for _, p := range c.preds {
		switch prefixPredOutcome(c.col, p, col.prefix) {
		case outNoneMatch:
			none = true
		case outAllMatch:
			// Satisfied by every non-null row; nothing to evaluate.
		default:
			residual = append(residual, p)
		}
	}
	d.residual = residual
	if none {
		clear(sel)
		return 0, false, nil
	}
	if len(residual) == 0 || selCount == 0 {
		return selCount, false, nil
	}
	// Evaluate the residual predicates once per dictionary entry, then
	// test row codes against the matching set; literal suffixes decode
	// per occurrence.
	match := d.match[:0]
	for _, suffix := range col.dict {
		var v storage.Value
		var err error
		v, d.scratch, err = decodePrefixed(c.col, col.prefix, suffix, d.scratch)
		if err != nil {
			return 0, true, err
		}
		match = append(match, matchesAll(residual, v))
	}
	d.match = match
	at := 0
	for j := 0; j < n; j++ {
		if col.isNull(j) {
			continue
		}
		code, lit, next, err := col.nextValue(j, at)
		if err != nil {
			return 0, true, err
		}
		at = next
		if !sel[j] {
			continue
		}
		ok := false
		if code >= 0 {
			ok = match[code]
		} else {
			var v storage.Value
			v, d.scratch, err = decodePrefixed(c.col, col.prefix, lit, d.scratch)
			if err != nil {
				return 0, true, err
			}
			ok = matchesAll(residual, v)
		}
		if !ok {
			sel[j] = false
			selCount--
		}
	}
	return selCount, true, nil
}

// materializePage writes the selected rows' values of the column's parsed
// PAGE section into the output slab, decoding each dictionary entry at most
// once per page.
func (d *pageDecoder) materializePage(c *decodeCol, n int) error {
	col := &c.page
	d.dictVals = slices.Grow(d.dictVals[:0], len(col.dict))[:len(col.dict)]
	d.dictDone = slices.Grow(d.dictDone[:0], len(col.dict))[:len(col.dict)]
	clear(d.dictDone)
	at := 0
	for j := 0; j < n; j++ {
		i := int(d.outIdx[j])
		if col.isNull(j) {
			if i >= 0 {
				d.slab[i*d.width+c.out] = storage.NullValue(c.col.Kind)
			}
			continue
		}
		code, lit, next, err := col.nextValue(j, at)
		if err != nil {
			return err
		}
		at = next
		if i < 0 {
			continue
		}
		var v storage.Value
		if code >= 0 {
			if !d.dictDone[code] {
				d.dictVals[code], d.scratch, err = decodePrefixed(c.col, col.prefix, col.dict[code], d.scratch)
				d.dictDone[code] = true
			}
			v = d.dictVals[code]
		} else {
			v, d.scratch, err = decodePrefixed(c.col, col.prefix, lit, d.scratch)
		}
		if err != nil {
			return err
		}
		d.slab[i*d.width+c.out] = v
	}
	return nil
}
