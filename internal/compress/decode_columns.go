package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"cadb/internal/storage"
)

// This file holds the PAGE kernel. PAGE is the one section format with
// per-page metadata, which enables three shortcuts, in increasing cost:
//
//  1. null bitmaps and the common-prefix header can decide a predicate for
//     the whole page without touching the values region;
//  2. predicates are evaluated once per local-dictionary entry a selected
//     row holds, and the other rows holding it reuse the verdict;
//  3. only the needed columns of the surviving rows are materialized, and
//     dictionary entries decode at most once per page.
//
// The values region is walked once per page and column, by parse: the
// filter and the materialize pass then read each row's entry from ref.

// pageColumn is one parsed column section of a PAGE payload. Its slices
// alias the payload; nothing is decoded yet.
type pageColumn struct {
	nulls  []byte   // null bitmap (bit j = row j is NULL)
	prefix []byte   // common prefix of the encoded non-null values
	ents   [][]byte // the local dictionary's suffixes, then each literal suffix in row order
	ndict  int      // local dictionary entries at the front of ents
	ref    []int32  // row j's entry in ents, -1 for a NULL
}

// parse splits an n-row column section into its parts and walks the values
// region once, bounds-checking every code and literal and recording each
// row's entry. Nothing is decoded. The slices are reused from the previous
// parse.
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
	col.ndict = int(binary.BigEndian.Uint16(payload[:2]))
	payload = payload[2:]
	col.ents = col.ents[:0]
	at := 0
	for i := 0; i < col.ndict; i++ {
		start, end, ok := lenValue(payload, at)
		if !ok {
			if start, end, err = lenValueSlow(payload, at); err != nil {
				return err
			}
		}
		col.ents = append(col.ents, payload[start:end])
		at = end
	}
	payload = payload[at:]
	codeSize := 1
	if col.ndict > 255 {
		codeSize = 2
	}
	if len(payload) < bitmapLen {
		return fmt.Errorf("compress: short PAGE dictionary bitmap")
	}
	coded, vals := payload[:bitmapLen], payload[bitmapLen:]
	col.ref = slices.Grow(col.ref[:0], n)[:n]
	at = 0
	for j := range col.ref {
		switch {
		case isSet(col.nulls, j):
			col.ref[j] = -1
		case isSet(coded, j):
			if len(vals)-at < codeSize {
				return fmt.Errorf("compress: short PAGE code")
			}
			code := int(foldBE(0, vals[at:at+codeSize]))
			at += codeSize
			if code >= col.ndict {
				return fmt.Errorf("compress: PAGE code %d of a %d-entry dictionary", code, col.ndict)
			}
			col.ref[j] = int32(code)
		default:
			start, end, ok := lenValue(vals, at)
			if !ok {
				if start, end, err = lenValueSlow(vals, at); err != nil {
					return err
				}
			}
			col.ref[j] = int32(len(col.ents))
			col.ents = append(col.ents, vals[start:end])
			at = end
		}
	}
	return nil
}

// page is the PAGE kernel: it parses the column's section once per page
// (the filter and materialize passes share the parse) and decodes each entry
// it needs once.
func page(d *pageDecoder, c *decodeCol, body []byte, n int, filter bool) (bool, error) {
	if !c.parsed {
		c.parsed = true
		if err := c.page.parse(body, n); err != nil {
			return false, err
		}
	}
	if filter {
		return d.filterPage(c)
	}
	return false, d.materializePage(c)
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

// filterPage narrows the selection by the column's predicates against its
// parsed PAGE section: NULL rows fail outright, the common prefix decides
// what it can for the whole page, and residual predicates evaluate once per
// entry a selected row holds. Reports whether any value bytes were decoded
// (pages decided from metadata alone are free).
func (d *pageDecoder) filterPage(c *decodeCol) (bool, error) {
	col := &c.page
	d.dropNulls(col.nulls)
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
		clear(d.sel)
		d.selCount = 0
		return false, nil
	}
	if len(residual) == 0 || d.selCount == 0 {
		return false, nil
	}
	match := slices.Grow(d.match[:0], len(col.ents))[:len(col.ents)]
	d.match = match
	clear(match)
	k := c.col.Kind
	for j, ok := range d.sel {
		if !ok {
			continue
		}
		e := col.ref[j] // the NULLs are dropped
		if match[e] == 0 {
			v, err := c.value(d, k, col.prefix, col.ents[e], false)
			if err != nil {
				return true, err
			}
			match[e] = 2
			if matchesAll(residual, v) {
				match[e] = 1
			}
		}
		if match[e] == 2 {
			d.sel[j] = false
			d.selCount--
		}
	}
	return true, nil
}

// materializePage writes the survivors' values of the column's parsed PAGE
// section into the output slab, decoding each local-dictionary entry at most
// once per page and each literal where it lands.
func (d *pageDecoder) materializePage(c *decodeCol) error {
	col := &c.page
	vals := slices.Grow(d.entVals[:0], col.ndict)[:col.ndict]
	done := slices.Grow(d.entDone[:0], col.ndict)[:col.ndict]
	d.entVals, d.entDone = vals, done
	clear(done)
	out, w := d.outColumn(c, false)
	k := c.col.Kind
	for i, j := range d.out.Slots {
		e := int(col.ref[j])
		switch {
		case e < 0:
			out[i*w] = storage.NullValue(k)
		case e >= col.ndict:
			v, err := c.value(d, k, col.prefix, col.ents[e], true)
			if err != nil {
				return err
			}
			out[i*w] = v
		default:
			if !done[e] {
				v, err := c.value(d, k, col.prefix, col.ents[e], true)
				if err != nil {
					return err
				}
				vals[e], done[e] = v, true
			}
			out[i*w] = vals[e]
		}
	}
	return nil
}
