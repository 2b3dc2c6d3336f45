package optimizer

import (
	"math"
	"slices"
	"strings"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// The reference plan search: the un-memoised planner exactly as it stood
// before costing moved onto compiled statements, interned structures and the
// atomic-term memo (costcache.go). It re-derives everything from strings on
// every call and searches the whole configuration per statement, which is
// what made it slow and what makes it an independent oracle:
// TestPriceMatchesReferencePlanSearch holds memo.price to it bit for bit.
// Only the leaves that define the model rather than the search are shared
// with production: selectivities, implication, MatchMV.

// refPlan is CostModel.Plan as the reference computes it.
func (cm *CostModel) refPlan(stmt *workload.Statement, cfg *Configuration) *Plan {
	switch {
	case stmt.Query != nil:
		return cm.refPlanQuery(stmt.Query, cfg)
	case stmt.Insert != nil:
		return cm.refPlanInsert(stmt.Insert, cfg)
	case stmt.Update != nil:
		return cm.refPlanUpdate(stmt.Update, cfg)
	case stmt.Delete != nil:
		return cm.refPlanDelete(stmt.Delete, cfg)
	}
	return &Plan{}
}

// refAlphaOf returns the per-tuple-written compression CPU cost of the index's
// design: Alpha of the uniform method, or — for a mixed per-column design —
// the column-count-weighted mean of the per-column Alphas (a written tuple
// re-encodes every leaf column, each paying its own method's share). Uniform
// designs reduce exactly to the scalar lookup, so all existing costs are
// unchanged.
func (cm *CostModel) refAlphaOf(h *HypoIndex) float64 {
	return cm.refDesignMean(h, cm.Alpha)
}

// refBetaOf is the per-tuple-per-column decompression CPU cost of the index's
// design, weighted the same way: reads touch columns, and each column decodes
// under its own method.
func (cm *CostModel) refBetaOf(h *HypoIndex) float64 {
	return cm.refDesignMean(h, cm.Beta)
}

func (cm *CostModel) refDesignMean(h *HypoIndex, table map[compress.Method]float64) float64 {
	if h == nil {
		return table[compress.None]
	}
	d := h.Def
	if !d.IsMixed() {
		return table[d.Method]
	}
	cols := cm.refLeafColumns(d)
	if len(cols) == 0 {
		return table[d.Method]
	}
	var sum float64
	for _, c := range cols {
		sum += table[d.MethodFor(c)]
	}
	return sum / float64(len(cols))
}

// refLeafColumns lists the columns a leaf entry of the index carries: every
// table column for a clustered index, key + include columns plus the row
// locator otherwise.
func (cm *CostModel) refLeafColumns(d *index.Def) []string {
	if d.Clustered {
		if t := cm.DB.Table(d.Table); t != nil {
			return t.Schema.Names()
		}
	}
	return append(d.Columns(), "__rid")
}

func (cm *CostModel) refPlanQuery(q *workload.Query, cfg *Configuration) *Plan {
	// MV path: if an MV index matches the whole query, it can replace the
	// joins entirely.
	bestMV := cm.refBestMVPath(q, cfg)

	has := func(table, col string) bool {
		t := cm.DB.Table(table)
		return t != nil && t.Schema.Has(col)
	}
	plan := &Plan{}
	var joinRows float64
	for ti, table := range q.Tables {
		t := cm.DB.Table(table)
		if t == nil {
			continue
		}
		preds := q.PredsOn(table, has)
		cols := q.NonPredColumnsOn(table, has)
		ap := cm.refBestAccess(t, preds, cols, cfg)
		plan.Paths = append(plan.Paths, ap)
		plan.Total += ap.Cost
		if ti == 0 {
			joinRows = ap.Rows
		} else {
			// FK join: build on the dimension, probe with the running side.
			plan.Total += cm.CPUJoinTuple * (ap.Rows + joinRows)
		}
	}
	// Grouping/aggregation CPU on the final row stream.
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		plan.Total += cm.CPUTuple * joinRows * 0.5
	}
	if bestMV != nil && bestMV.Cost < plan.Total {
		return &Plan{Total: bestMV.Cost, Paths: []AccessPath{*bestMV}, Note: "answered from MV"}
	}
	return plan
}

// refBestAccess picks the cheapest access path for one table. cols lists the
// columns the query needs beyond its WHERE predicates; predicate columns are
// accounted per-index, because a partial index's filter can subsume a
// predicate entirely.
func (cm *CostModel) refBestAccess(t *catalog.Table, preds []workload.Predicate, cols []string, cfg *Configuration) AccessPath {
	rows := float64(t.RowCount())
	sel := CombinedSelectivity(t, preds)
	outRows := rows * sel

	// Base path: clustered index scan/seek if present, else heap scan.
	best := cm.refBaseScan(t, preds, cols, cfg, outRows)

	for _, h := range cfg.Indexes() {
		if h.Def.MV != nil || !strings.EqualFold(h.Def.Table, t.Name) {
			continue
		}
		if h.Def.Clustered {
			if ap, ok := cm.refIndexPath(t, h, preds, cols, true); ok && ap.Cost < best.Cost {
				best = ap
			}
			continue
		}
		if ap, ok := cm.refIndexPath(t, h, preds, cols, false); ok && ap.Cost < best.Cost {
			best = ap
		}
	}
	best.Rows = outRows
	return best
}

// refBaseScan costs the full scan of the base structure (heap or clustered).
func (cm *CostModel) refBaseScan(t *catalog.Table, preds []workload.Predicate, cols []string, cfg *Configuration, outRows float64) AccessPath {
	rows := float64(t.RowCount())
	if cl := cfg.Clustered(t.Name); cl != nil {
		// Try a clustered seek first; fall back to clustered scan.
		if ap, ok := cm.refIndexPath(t, cl, preds, cols, true); ok {
			return ap
		}
	}
	pages := float64(t.HeapPages())
	cost := cm.SeqPageIO*pages + cm.CPUTuple*rows
	return AccessPath{Table: t.Name, Kind: "heap-scan", Rows: outRows, Cost: cost, EstPageReads: pages}
}

// refIndexPath costs using the given index for the table, returning ok=false
// when the index is unusable (partial filter not implied, or non-covering
// with no seekable prefix).
func (cm *CostModel) refIndexPath(t *catalog.Table, h *HypoIndex, preds []workload.Predicate, cols []string, clustered bool) (AccessPath, bool) {
	// Partial index: usable only if its filter is implied by the query.
	remaining := preds
	if h.Def.IsPartial() {
		for _, ip := range h.Def.Where {
			if !impliedBy(ip, preds) {
				return AccessPath{}, false
			}
		}
		// Predicates exactly matching the filter are already applied inside
		// the index; drop them from further selectivity so we don't double
		// count.
		remaining = nil
		for _, qp := range preds {
			matched := false
			for _, ip := range h.Def.Where {
				if equalFoldCol(ip, qp) && implies(qp, ip) && implies(ip, qp) {
					matched = true
					break
				}
			}
			if !matched {
				remaining = append(remaining, qp)
			}
		}
	}

	idxCols := h.Def.Columns()
	if clustered {
		idxCols = t.Schema.Names()
	}
	// Needed columns: non-predicate usage plus the columns of predicates
	// that are not subsumed by the index filter.
	needed := append([]string{}, cols...)
	for _, p := range remaining {
		if !containsFold(needed, p.Col) {
			needed = append(needed, p.Col)
		}
	}
	covering := clustered || containsAll(idxCols, needed)

	// Seek: contiguous sargable prefix of the key columns. Equality
	// predicates extend the prefix; the first range predicate ends it.
	seekSel := 1.0
	var seek []workload.Predicate
	for _, key := range h.Def.KeyCols {
		p, ok := refPredOn(remaining, key)
		if !ok || !p.Sargable() {
			break
		}
		seekSel *= PredicateSelectivity(t, p)
		seek = append(seek, p)
		if !p.IsEquality() {
			break
		}
	}

	idxRows := float64(h.Rows)
	pages := float64(h.Pages())
	usedCols := countUsedCols(idxCols, needed)
	beta := cm.refBetaOf(h)
	residualSel := CombinedSelectivity(t, remaining)

	if seek != nil {
		matched := idxRows * seekSel
		height := cm.treeHeight(pages)
		cost := cm.RandPageIO*height + cm.SeqPageIO*math.Ceil(seekSel*pages)
		cost += cm.CPUTuple*matched + beta*matched*float64(usedCols)
		kind := "index-seek"
		if clustered {
			kind = "clustered-seek"
		}
		ap := AccessPath{Table: t.Name, Index: h, Kind: kind, Cost: cost,
			EstPageReads: height + math.Ceil(seekSel*pages), Seek: seek}
		if !covering {
			// RID lookups for rows surviving all predicates resolvable on
			// the index; remaining predicates are applied after the lookup.
			lookups := idxRows * seekSel * refResidualFraction(t, remaining, idxCols)
			ap.Lookups = lookups
			ap.Cost += cm.RandPageIO*lookups + cm.CPUTuple*lookups
			ap.EstPageReads += lookups
		}
		return ap, true
	}

	if !covering {
		return AccessPath{}, false // non-covering scan is never competitive
	}
	kind := "index-scan"
	if clustered {
		kind = "clustered-scan"
	}
	if h.Def.IsMV() {
		kind = "mv-scan"
	}
	cost := cm.SeqPageIO*pages + cm.CPUTuple*idxRows + beta*idxRows*float64(usedCols)
	_ = residualSel
	return AccessPath{Table: t.Name, Index: h, Kind: kind, Cost: cost, EstPageReads: pages}, true
}

// refResidualFraction estimates the fraction of prefix-matched rows that
// survive the predicates evaluable on the index columns (those reduce RID
// lookups).
func refResidualFraction(t *catalog.Table, preds []workload.Predicate, idxCols []string) float64 {
	frac := 1.0
	for _, p := range preds {
		if containsFold(idxCols, p.Col) {
			frac *= PredicateSelectivity(t, p)
		}
	}
	return frac
}

func refPredOn(preds []workload.Predicate, col string) (workload.Predicate, bool) {
	for _, p := range preds {
		if storageEqualFold(p.Col, col) {
			return p, true
		}
	}
	return workload.Predicate{}, false
}

// refBestMVPath returns the cheapest MV-based path answering the whole query,
// or nil.
func (cm *CostModel) refBestMVPath(q *workload.Query, cfg *Configuration) *AccessPath {
	var best *AccessPath
	for _, h := range cfg.Indexes() {
		if h.Def.MV == nil {
			continue
		}
		ans, ok := MatchMV(cm.DB, h.Def.MV, q)
		if !ok {
			continue
		}
		ap := cm.refMvAccess(h, ans.Residual, q)
		if best == nil || ap.Cost < best.Cost {
			a := ap
			best = &a
		}
	}
	return best
}

// refMvAccess costs scanning/seeking the MV index with the residual predicates.
func (cm *CostModel) refMvAccess(h *HypoIndex, residual []workload.Predicate, q *workload.Query) AccessPath {
	rows := float64(h.Rows)
	pages := float64(h.Pages())
	beta := cm.refBetaOf(h)
	usedCols := len(h.Def.Columns())
	if usedCols == 0 {
		usedCols = 1
	}
	// Residual selectivity estimated from the underlying fact/dimension
	// column statistics.
	sel := 1.0
	for _, p := range residual {
		sel *= cm.mvPredSelectivity(p, q)
	}
	// Seek when a sargable residual predicate is on the leading MV key
	// column.
	var seek []workload.Predicate
	if len(h.Def.KeyCols) > 0 && len(residual) > 0 {
		lead := h.Def.KeyCols[0]
		for _, p := range residual {
			if p.Sargable() && (strings.EqualFold(index.QualifiedCol(workload.ColRef{Table: p.Table, Col: p.Col}), lead) ||
				storageEqualFold(p.Col, lead)) {
				seek = []workload.Predicate{p}
				break
			}
		}
	}
	var cost, reads float64
	kind := "mv-scan"
	if seek != nil {
		kind = "mv-seek"
		cost = cm.RandPageIO*cm.treeHeight(pages) + cm.SeqPageIO*math.Ceil(sel*pages)
		cost += cm.CPUTuple*sel*rows + beta*sel*rows*float64(usedCols)
		reads = cm.treeHeight(pages) + math.Ceil(sel*pages)
	} else {
		cost = cm.SeqPageIO*pages + cm.CPUTuple*rows + beta*rows*float64(usedCols)
		reads = pages
	}
	return AccessPath{Table: h.Def.Table, Index: h, Kind: kind, Rows: sel * rows, Cost: cost, EstPageReads: reads, Seek: seek}
}

func (cm *CostModel) refPlanInsert(ins *workload.Insert, cfg *Configuration) *Plan {
	t := cm.DB.Table(ins.Table)
	if t == nil {
		return &Plan{}
	}
	n := float64(ins.Rows)
	plan := &Plan{}

	// Base structure: heap append or clustered insert.
	rowW := t.AvgRowWidth()
	basePages := n * rowW / storage.UsablePageBytes
	baseCPU := cm.CPUInsert * n
	var baseIO float64
	cl := cfg.Clustered(t.Name)
	if cl != nil {
		// Clustered insert: bulk sort + merge, plus compression CPU.
		baseIO = cm.SeqPageIO * basePages * 2 * cl.CF()
		baseCPU += cm.refAlphaOf(cl) * n
	} else {
		baseIO = cm.SeqPageIO * basePages
	}
	plan.Total += baseIO + baseCPU
	plan.Paths = append(plan.Paths, AccessPath{Table: t.Name, Index: cl, Kind: "base-insert", Rows: n, Cost: baseIO + baseCPU})

	// Maintenance of secondary, partial and MV indexes. The clustered index
	// is the base structure above; skip it by identity (Def.ID), not by
	// pointer — a clustered index reached through a different HypoIndex
	// pointer (e.g. a duplicate entry, or a copy introduced by persistent-
	// configuration Replace) must not be double-counted as secondary
	// maintenance. Rows inserted into a table a view joins are referenced
	// by no fact row yet, so the view keeps its groups.
	for _, h := range refMaintained(cfg, t.Name) {
		if refIsSameIndex(h, cl) || h.Def.MV != nil && !strings.EqualFold(h.Def.MV.Fact, t.Name) {
			continue
		}
		affected := n
		if h.Def.IsPartial() {
			affected = n * CombinedSelectivity(t, h.Def.Where)
		}
		if h.Def.MV != nil {
			affected = cm.refMVRows(h, t, n)
		}
		writePages := affected * refEntryWidth(h) / storage.UsablePageBytes * h.CF()
		io := cm.SeqPageIO * writePages * 2
		cpu := cm.CPUInsert*affected + cm.refAlphaOf(h)*affected
		plan.Total += io + cpu
		plan.Paths = append(plan.Paths, AccessPath{Table: t.Name, Index: h, Kind: "index-maintain", Rows: affected, Cost: io + cpu})
	}
	return plan
}

// refMaintained lists, in insertion order, what a write to the table keeps
// in step: every index on it and every view whose build reads it.
func refMaintained(cfg *Configuration, table string) []*HypoIndex {
	var out []*HypoIndex
	for _, h := range cfg.Indexes() {
		if h.Def.MV != nil && slices.Contains(h.Def.MV.Tables(), strings.ToLower(table)) ||
			h.Def.MV == nil && strings.EqualFold(h.Def.Table, table) {
			out = append(out, h)
		}
	}
	return out
}

// refMVRows is how many entries of view h a write of n rows to table t
// reaches: the fact rows written, or through a join the fact rows joined to
// the written ones (|fact|/|t| per row), that pass the view's WHERE.
func (cm *CostModel) refMVRows(h *HypoIndex, t *catalog.Table, n float64) float64 {
	if !strings.EqualFold(h.Def.MV.Fact, t.Name) {
		n *= float64(cm.DB.Table(h.Def.MV.Fact).RowCount()) / float64(t.RowCount())
	}
	return n * mvWhereSelectivity(cm.DB, h.Def.MV)
}

// refIsSameIndex reports whether two hypothetical indexes denote the same
// physical structure+method, regardless of wrapper pointer identity.
func refIsSameIndex(a, b *HypoIndex) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a == b || a.Def.ID() == b.Def.ID()
}

// refEntryWidth is the average uncompressed leaf-entry width of an index.
func refEntryWidth(h *HypoIndex) float64 {
	if h.Rows > 0 {
		return float64(h.UncompressedBytes) / float64(h.Rows)
	}
	return 32
}

// refPlanUpdate costs a predicated UPDATE following Appendix A:
// CPUCost_update = BaseCPUCost + α(method)·#tuples_written. The qualifying
// rows are located through the cheapest access path under the configuration,
// the base structure (heap or clustered index) rewrites them in place, and
// every other index whose columns the update touches is maintained —
// touched-column awareness: an index that stores none of the SET columns
// needs no maintenance.
func (cm *CostModel) refPlanUpdate(u *workload.Update, cfg *Configuration) *Plan {
	t := cm.DB.Table(u.Table)
	if t == nil {
		return &Plan{}
	}
	plan := &Plan{}

	// 1. Locate the qualifying rows; the touched columns must be fetched so
	// the rewrite can happen.
	lookup := cm.refBestAccess(t, u.Preds, u.SetCols(), cfg)
	n := lookup.Rows
	plan.Paths = append(plan.Paths, lookup)
	plan.Total += lookup.Cost

	// 2. Rewrite the base structure. Unlike a bulk load, predicated updates
	// dirty the pages their rows happen to live in, so the write I/O does
	// not shrink with compression — what differentiates the methods is the
	// Appendix A α(method) CPU paid per tuple written. Updating a clustered
	// key column moves the row, which costs a delete+reinsert instead of an
	// in-place rewrite.
	cl := cfg.Clustered(t.Name)
	writePages := n * t.AvgRowWidth() / storage.UsablePageBytes
	baseIO := cm.SeqPageIO * writePages
	baseCPU := cm.CPUInsert*n + cm.refAlphaOf(cl)*n
	if cl != nil && touchesAny(u, cl.Def.KeyCols) {
		baseIO *= 2
		baseCPU += cm.CPUInsert * n
	}
	plan.Total += baseIO + baseCPU
	plan.Paths = append(plan.Paths, AccessPath{Table: t.Name, Index: cl, Kind: "base-update", Rows: n, Cost: baseIO + baseCPU})

	// 3. Maintain the other indexes, and the views, the update touches.
	for _, h := range refMaintained(cfg, t.Name) {
		if refIsSameIndex(h, cl) {
			continue
		}
		affected, moves, ok := cm.refUpdateAffected(t, u, h, n)
		if !ok {
			continue
		}
		cost := cm.refMaintainCost(h, affected, moves)
		plan.Total += cost
		plan.Paths = append(plan.Paths, AccessPath{Table: t.Name, Index: h, Kind: "index-maintain", Rows: affected, Cost: cost})
	}
	return plan
}

// refPlanDelete costs a predicated DELETE: locate the qualifying rows through
// the cheapest access path, remove them from the base structure, and remove
// the corresponding entries from every index on the table (deletes touch all
// indexes — there is no touched-column filter).
func (cm *CostModel) refPlanDelete(d *workload.Delete, cfg *Configuration) *Plan {
	t := cm.DB.Table(d.Table)
	if t == nil {
		return &Plan{}
	}
	plan := &Plan{}

	lookup := cm.refBestAccess(t, d.Preds, nil, cfg)
	n := lookup.Rows
	plan.Paths = append(plan.Paths, lookup)
	plan.Total += lookup.Cost

	// Base-structure removal: the dirtied pages must be rewritten (page
	// count is method-independent, as in refPlanUpdate), and compressed pages
	// pay α to re-compress.
	cl := cfg.Clustered(t.Name)
	writePages := n * t.AvgRowWidth() / storage.UsablePageBytes
	baseIO := cm.SeqPageIO * writePages
	baseCPU := cm.CPUInsert*n + cm.refAlphaOf(cl)*n
	plan.Total += baseIO + baseCPU
	plan.Paths = append(plan.Paths, AccessPath{Table: t.Name, Index: cl, Kind: "base-delete", Rows: n, Cost: baseIO + baseCPU})

	for _, h := range refMaintained(cfg, t.Name) {
		if refIsSameIndex(h, cl) {
			continue
		}
		affected := n
		if h.Def.IsPartial() {
			affected = n * CombinedSelectivity(t, h.Def.Where)
		}
		if h.Def.MV != nil {
			affected = cm.refMVRows(h, t, n)
		}
		cost := cm.refMaintainCost(h, affected, false)
		plan.Total += cost
		plan.Paths = append(plan.Paths, AccessPath{Table: t.Name, Index: h, Kind: "index-maintain", Rows: affected, Cost: cost})
	}
	return plan
}

// refUpdateAffected decides whether the update maintains index h, and with how
// many affected entries. moves reports whether entries relocate (key or
// partial-filter columns touched: delete+reinsert) rather than being
// rewritten in place (include columns touched).
func (cm *CostModel) refUpdateAffected(t *catalog.Table, u *workload.Update, h *HypoIndex, n float64) (affected float64, moves, ok bool) {
	if h.Def.MV != nil {
		if !mvTouchedByUpdate(cm.DB, h.Def.MV, u) {
			return 0, false, false
		}
		return cm.refMVRows(h, t, n), true, true
	}
	if h.Def.IsPartial() {
		// Touching the filter column migrates rows in and out of the index;
		// every qualifying row may need an entry inserted or removed.
		for _, p := range h.Def.Where {
			if u.Touches(p.Col) {
				return n, true, true
			}
		}
		if !touchesAny(u, h.Def.Columns()) {
			return 0, false, false
		}
		return n * CombinedSelectivity(t, h.Def.Where), touchesAny(u, h.Def.KeyCols), true
	}
	cols := h.Def.Columns()
	if h.Def.Clustered {
		cols = t.Schema.Names()
	}
	if !touchesAny(u, cols) {
		return 0, false, false
	}
	return n, touchesAny(u, h.Def.KeyCols), true
}

// refMaintainCost is the per-index write-maintenance cost for affected entries:
// a tree descent to locate them, leaf-page writes (twice when entries move),
// per-entry CPU and the Appendix A α(method) compression CPU. The leaf
// write I/O is method-independent — scattered maintenance dirties whole
// pages regardless of how tightly they pack — so compressed variants
// compete on α alone, which is exactly the trade-off that makes DTAc back
// off PAGE under update-heavy mixes.
func (cm *CostModel) refMaintainCost(h *HypoIndex, affected float64, moves bool) float64 {
	writePages := affected * refEntryWidth(h) / storage.UsablePageBytes
	passes := 1.0
	if moves {
		passes = 2
	}
	io := cm.RandPageIO*cm.treeHeight(float64(h.Pages())) + cm.SeqPageIO*writePages*passes
	cpu := cm.CPUInsert*affected*passes + cm.refAlphaOf(h)*affected
	return io + cpu
}

func containsAll(haystack, needles []string) bool {
	for _, n := range needles {
		if !containsFold(haystack, n) {
			return false
		}
	}
	return true
}

func countUsedCols(idxCols, queryCols []string) int {
	n := 0
	for _, c := range queryCols {
		if containsFold(idxCols, c) {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}
