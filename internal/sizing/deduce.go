package sizing

import (
	"fmt"
	"math"
	"strings"

	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/storage"
)

// DeduceColSet estimates the size of target from an index with the same
// column set (Section 4.2, "Column Set Deduction"). Valid only for
// order-independent compression: Size(I_AB) = Size(I_BA). Zero cost.
func (e *Estimator) DeduceColSet(target *index.Def, known *Estimate) (*Estimate, error) {
	if est, ok := e.Cached(target); ok {
		return est, nil
	}
	if target.Method != known.Def.Method {
		return nil, fmt.Errorf("sizing: colset deduction across methods (%s vs %s)", target.Method, known.Def.Method)
	}
	if target.Clustered != known.Def.Clustered {
		return nil, fmt.Errorf("sizing: colset deduction between a clustered and a secondary index")
	}
	if target.Method.Class() != compress.OrderIndependent {
		return nil, fmt.Errorf("sizing: colset deduction invalid for ORD-DEP method %s", target.Method)
	}
	if !sameBase(target, known.Def) {
		return nil, fmt.Errorf("sizing: colset deduction across different bases")
	}
	tCols, kCols := e.colsOf(target), e.colsOf(known.Def)
	if setKey(tCols) != setKey(kCols) {
		return nil, fmt.Errorf("sizing: column sets differ: %v vs %v", tCols, kCols)
	}
	mean, std := e.Model.deducedError(DeduceColSet, target.Method, 1,
		func(int) (float64, float64) { return known.Mean, known.Std })
	est := &Estimate{
		Def:               target,
		Rows:              known.Rows,
		UncompressedBytes: known.UncompressedBytes,
		Bytes:             known.Bytes,
		CF:                known.CF,
		Source:            SourceColSet,
		Mean:              mean,
		Std:               std,
		Cost:              0,
	}
	e.Put(est)
	return est, nil
}

// DeduceColExt estimates the size of target by extrapolating from indexes on
// subsets of its columns (Section 4.2, "Column Extrapolation"). parts must
// partition the target's column list in key order (e.g. AB+C or A+B+C for
// target ABC). For ORD-IND methods the size reductions simply add; for
// ORD-DEP methods each part's reduction is discounted by the fragmentation
// factor F(target, part)/F(part, part) computed from average run lengths.
func (e *Estimator) DeduceColExt(target *index.Def, parts []*Estimate) (*Estimate, error) {
	if est, ok := e.Cached(target); ok {
		return est, nil
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("sizing: no parts to extrapolate from")
	}
	if target.MV != nil || target.IsPartial() {
		return nil, fmt.Errorf("sizing: colext deduction supports plain table indexes only")
	}
	t := e.DB.Table(target.Table)
	if t == nil {
		return nil, fmt.Errorf("sizing: unknown table %q", target.Table)
	}
	// Validate the partition.
	tCols := e.colsOf(target)
	var joined []string
	for _, p := range parts {
		if p.Def.Method != target.Method {
			return nil, fmt.Errorf("sizing: part method %s != target %s", p.Def.Method, target.Method)
		}
		if !sameBase(target, p.Def) {
			return nil, fmt.Errorf("sizing: part on different base")
		}
		joined = append(joined, e.colsOf(p.Def)...)
	}
	if setKey(joined) != setKey(tCols) {
		return nil, fmt.Errorf("sizing: parts %v do not partition target columns %v", joined, tCols)
	}

	// Uncompressed size of the target from statistics (cheap and accurate).
	uncEst, err := e.EstimateUncompressed(target)
	if err != nil {
		return nil, err
	}
	unc := uncEst.UncompressedBytes
	rows := uncEst.Rows

	// Sum part reductions, fragmentation-corrected for ORD-DEP methods.
	var reduction float64
	ordDep := target.Method.Class() == compress.OrderDependent
	prefix := []string{}
	tTuplesPerPage := tuplesPerPage(unc, rows)
	for _, p := range parts {
		pCols := e.colsOf(p.Def)
		prefix = append(prefix, pCols...)
		// Only the value savings extrapolate; the part's own layout saving
		// is taken out here and the target's is added once below.
		r := float64(p.UncompressedBytes-p.Bytes) - layoutSavingPerRow(p.Def, len(pCols))*float64(p.Rows)
		// Scale the part's reduction to the target's row count (normally
		// identical since both live on the same table).
		if p.Rows > 0 && rows != p.Rows {
			r *= float64(rows) / float64(p.Rows)
		}
		if ordDep {
			// F(I_target, Y) / F(I_part, Y) with Y = this part's columns.
			dPart, err := t.DistinctPrefix(pCols)
			if err != nil {
				return nil, err
			}
			dPrefix, err := t.DistinctPrefix(append([]string{}, prefix...))
			if err != nil {
				return nil, err
			}
			nDistinctPart, nDistinctPrefix := float64(dPart), float64(dPrefix)
			n := float64(rows)
			pTuplesPerPage := tuplesPerPage(p.UncompressedBytes, p.Rows)
			// Run lengths fragment by the distinct prefix combinations, but
			// the per-page distinct count of this part's values can never
			// exceed the part's own domain |Y|.
			fOwn := replacedFraction(n/nDistinctPart, nDistinctPart, pTuplesPerPage)
			fTarget := replacedFraction(n/nDistinctPrefix, nDistinctPart, tTuplesPerPage)
			if fOwn > 1e-9 {
				r *= fTarget / fOwn
			}
		}
		reduction += r
	}
	// Each non-clustered part index carries its own RID column whose
	// compression savings were counted once per part; the target has a
	// single RID. Remove the (len(parts)-1) over-counted copies.
	if !target.Clustered && len(parts) > 1 {
		reduction -= float64(len(parts)-1) * ridSavingPerRow(rows) * float64(rows)
	}
	reduction += layoutSavingPerRow(target, len(tCols)) * float64(rows)
	bytes := float64(unc) - reduction
	minBytes := 0.05 * float64(unc)
	if bytes < minBytes {
		bytes = minBytes
	}
	if bytes > float64(unc) {
		bytes = float64(unc)
	}

	mean, std := e.Model.deducedError(DeduceColExt, target.Method, len(parts),
		func(i int) (float64, float64) { return parts[i].Mean, parts[i].Std })

	est := &Estimate{
		Def:               target,
		Rows:              rows,
		UncompressedBytes: unc,
		Bytes:             int64(bytes),
		CF:                bytes / max(1, float64(unc)),
		Source:            SourceColExt,
		Mean:              mean,
		Std:               std,
		Cost:              0,
	}
	e.Put(est)
	return est, nil
}

// ridSavingPerRow estimates how many bytes ROW-style minimal encoding saves
// on an 8-byte RID column per row: 8 bytes shrink to a 1-byte length
// descriptor plus the minimal zigzag payload.
func ridSavingPerRow(rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	// Average minimal payload bytes of zigzag(i) = 2i for i in [0, rows).
	var weighted float64
	counted := int64(1) // i = 0 encodes in 0 payload bytes
	for k := 1; k <= 8 && counted < rows; k++ {
		// u = 2i takes k bytes when u in [2^(8(k-1)), 2^(8k)), u > 0.
		var lo uint64 = 1
		if k > 1 {
			lo = 1 << uint(8*(k-1))
		}
		hi := uint64(1) << uint(8*k)
		iLo := (lo + 1) / 2
		iHi := hi / 2
		if iLo < 1 {
			iLo = 1
		}
		if iHi > uint64(rows) {
			iHi = uint64(rows)
		}
		if iHi > iLo {
			n := int64(iHi - iLo)
			weighted += float64(n) * float64(k)
			counted += n
		}
	}
	avgPayload := weighted / float64(rows)
	saving := 8 - 1 - avgPayload
	if saving < 0 {
		return 0
	}
	return saving
}

// layoutSavingPerRow is compress.LayoutSavingPerRow of an index over cols
// columns, counting a secondary's RID.
func layoutSavingPerRow(d *index.Def, cols int) float64 {
	if !d.Clustered {
		cols++
	}
	return compress.LayoutSavingPerRow(d.Method, cols)
}

// tuplesPerPage estimates T(I_X): how many leaf entries share a page.
func tuplesPerPage(uncBytes, rows int64) float64 {
	if rows <= 0 || uncBytes <= 0 {
		return 100
	}
	entry := float64(uncBytes) / float64(rows)
	t := storage.UsablePageBytes / entry
	if t < 1 {
		t = 1
	}
	return t
}

// replacedFraction computes F(I_X, Y) = (T - DV)/T where DV is the average
// number of distinct values of Y per page, derived from the average run
// length L (Section 4.2):
//
//	L > 1:  DV = T / L
//	L <= 1: DV = |Y| · (1 - (1 - 1/|Y|)^T)   (distinct sides of a |Y|-dice)
func replacedFraction(runLen, domain, tuplesPerPage float64) float64 {
	if domain < 1 {
		domain = 1
	}
	var dv float64
	if runLen > 1 {
		dv = tuplesPerPage / runLen
	} else {
		dv = domain * (1 - math.Pow(1-1/domain, tuplesPerPage))
	}
	// A page cannot hold more distinct values than the domain has, nor more
	// than it has tuples.
	if dv > domain {
		dv = domain
	}
	if dv > tuplesPerPage {
		dv = tuplesPerPage
	}
	f := (tuplesPerPage - dv) / tuplesPerPage
	if f < 0 {
		return 0
	}
	return f
}

// colsOf returns the full physical column list of the index (clustered
// indexes carry every table column).
func (e *Estimator) colsOf(d *index.Def) []string {
	if d.Clustered && d.MV == nil {
		if t := e.DB.Table(d.Table); t != nil {
			return t.Schema.Names()
		}
	}
	return d.Columns()
}

// sameBase reports whether two defs are over the same row source (same
// table, same filter, same MV).
func sameBase(a, b *index.Def) bool {
	if !strings.EqualFold(a.Table, b.Table) {
		return false
	}
	if (a.MV == nil) != (b.MV == nil) {
		return false
	}
	if a.MV != nil && a.MV.Fingerprint() != b.MV.Fingerprint() {
		return false
	}
	if len(a.Where) != len(b.Where) {
		return false
	}
	for i := range a.Where {
		if !strings.EqualFold(a.Where[i].String(), b.Where[i].String()) {
			return false
		}
	}
	return true
}
