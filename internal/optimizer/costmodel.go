package optimizer

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// CostModel is the simulated optimizer cost model. Cost units are arbitrary
// but consistent: one sequential page read costs SeqPageIO.
//
// The compression-aware extension follows Appendix A exactly:
//
//	CPUCost_update = BaseCPUCost + α(method) · #tuples_written
//	CPUCost_read   = BaseCPUCost + β(method) · #tuples_read · #columns_read
//
// and the I/O model is unchanged — compressed indexes simply occupy fewer
// pages, which implicitly reduces their I/O cost.
type CostModel struct {
	DB *catalog.Database

	// SeqPageIO is the cost of reading one page sequentially.
	SeqPageIO float64
	// RandPageIO is the cost of one random page access (seeks, RID lookups).
	RandPageIO float64
	// CPUTuple is the per-tuple processing cost during reads.
	CPUTuple float64
	// CPUInsert is the per-tuple cost of inserting into a structure.
	CPUInsert float64
	// CPUJoinTuple is the per-tuple hash-join build/probe cost.
	CPUJoinTuple float64
	// Fanout approximates the B+-tree interior fanout (for seek heights).
	Fanout float64

	// Alpha is the per-tuple compression CPU cost on writes, per method —
	// larger for PAGE than ROW, mirroring the microbenchmarks of [13].
	Alpha map[compress.Method]float64
	// Beta is the per-tuple per-column decompression CPU cost on reads.
	Beta map[compress.Method]float64

	// memo holds the compiled statements, interned structures and memoized
	// atomic terms every costing call goes through; see costcache.go.
	// ResetCostCache swaps in an empty one.
	memo atomic.Pointer[memo]
}

// NewCostModel returns a model with default constants. The absolute values
// are arbitrary; their ratios encode the paper's qualitative calibration:
// random I/O ≫ sequential I/O ≫ per-tuple CPU, and PAGE compression costs
// roughly 3–4× ROW compression in CPU on both reads and writes.
func NewCostModel(db *catalog.Database) *CostModel {
	cm := &CostModel{
		DB:           db,
		SeqPageIO:    1.0,
		RandPageIO:   4.0,
		CPUTuple:     0.002,
		CPUInsert:    0.005,
		CPUJoinTuple: 0.001,
		Fanout:       256,
		Alpha: map[compress.Method]float64{
			compress.None:       0,
			compress.Row:        0.004,
			compress.Page:       0.014,
			compress.GlobalDict: 0.006,
			compress.RLE:        0.005,
		},
		Beta: map[compress.Method]float64{
			compress.None:       0,
			compress.Row:        0.0003,
			compress.Page:       0.0010,
			compress.GlobalDict: 0.0005,
			compress.RLE:        0.0004,
		},
	}
	cm.ResetCostCache()
	return cm
}

// designMean returns the per-tuple compression CPU constant of a design from
// the Alpha (writes) or Beta (reads) table: the uniform method's entry, or —
// for a mixed per-column design — the column-count-weighted mean over the
// leaf columns (a written tuple re-encodes every leaf column and a read
// decodes columns, each under its own method). Uniform designs reduce
// exactly to the scalar lookup.
func designMean(d *index.Def, leaf []string, table map[compress.Method]float64) float64 {
	if !d.IsMixed() || len(leaf) == 0 {
		return table[d.Method]
	}
	var sum float64
	for _, c := range leaf {
		sum += table[d.MethodFor(c)]
	}
	return sum / float64(len(leaf))
}

// AccessPath describes the chosen plan for one table of a query.
type AccessPath struct {
	Table   string
	Index   *HypoIndex // nil = heap
	Kind    string     // "heap-scan", "clustered-scan", "clustered-seek", "index-scan", "index-seek", "mv-scan", "mv-seek"
	Rows    float64    // rows produced
	Cost    float64
	Lookups float64 // RID lookups performed
	// EstPageReads is the model's estimate of physical page reads for this
	// path (leaf pages scanned, tree-descent reads, RID lookups) — the
	// validation hook the segment-backed executor's counted IOStats are
	// diffed against (the loop benchmark's optimizer.page_read_err_pct).
	EstPageReads float64
	// Seek lists the predicates an index or clustered seek positions on, one
	// per leading key column: equalities, then at most one range. The
	// segment-backed executor seeks on exactly these; nil for scans. The
	// list may share its array with the statement's predicates: read only.
	Seek []workload.Predicate
}

// Plan is the costed plan of a statement.
type Plan struct {
	Total float64
	Paths []AccessPath
	Note  string
}

// EstimatedPageReads sums the page-read estimates of every access path in
// the plan.
func (p *Plan) EstimatedPageReads() float64 {
	var total float64
	for _, ap := range p.Paths {
		total += ap.EstPageReads
	}
	return total
}

// String renders the plan compactly.
func (p *Plan) String() string {
	parts := make([]string, 0, len(p.Paths)+1)
	for _, ap := range p.Paths {
		name := "heap"
		if ap.Index != nil {
			name = ap.Index.Def.String()
		}
		parts = append(parts, fmt.Sprintf("%s on %s via %s cost=%.2f", ap.Kind, ap.Table, name, ap.Cost))
	}
	if p.Note != "" {
		parts = append(parts, p.Note)
	}
	return strings.Join(parts, "; ")
}

// Cost returns the estimated cost of a statement under the configuration —
// the what-if API.
func (cm *CostModel) Cost(stmt *workload.Statement, cfg *Configuration) float64 {
	m := cm.memo.Load()
	return m.price(m.compile(stmt), m.resolve(cfg), nil)
}

// Plan costs a statement and returns the full plan.
func (cm *CostModel) Plan(stmt *workload.Statement, cfg *Configuration) *Plan {
	m := cm.memo.Load()
	plan := &Plan{}
	plan.Total = m.price(m.compile(stmt), m.resolve(cfg), plan)
	return plan
}

// WorkloadCost returns the weighted total cost of the workload under the
// configuration, summed in statement order.
func (cm *CostModel) WorkloadCost(wl *workload.Workload, cfg *Configuration) float64 {
	m := cm.memo.Load()
	members := m.resolve(cfg)
	var total float64
	for _, s := range wl.Statements {
		total += s.Weight * m.price(m.compile(s), members, nil)
	}
	return total
}

// Improvement returns the percentage improvement of cfg over the base
// configuration (no indexes), the paper's evaluation metric.
func (cm *CostModel) Improvement(wl *workload.Workload, cfg *Configuration) float64 {
	base := cm.WorkloadCost(wl, NewConfiguration())
	if base <= 0 {
		return 0
	}
	got := cm.WorkloadCost(wl, cfg)
	return 100 * (1 - got/base)
}

// ---------------------------------------------------------------------------
// Atomic terms. Each function below prices one structure for one compiled
// statement and depends on nothing else in the configuration, which is what
// lets the memo (costcache.go) compute it once.

// indexPath costs reading the table through the index, returning ok=false
// when the index is unusable (partial filter not implied, or non-covering
// with no seekable prefix). Predicate columns are accounted per index,
// because a partial index's filter can subsume a predicate entirely.
func (cm *CostModel) indexPath(ct *compiledTable, hd *handle) (AccessPath, bool) {
	d := hd.h.Def
	// Partial index: usable only if its filter is implied by the query.
	// Predicates exactly matching the filter are already applied inside the
	// index; they drop out of further selectivity so they are not double
	// counted.
	var subsumed []bool
	if d.IsPartial() {
		for _, ip := range d.Where {
			if !impliedBy(ip, ct.preds) {
				return AccessPath{}, false
			}
		}
		var buf [8]bool // a handful of predicates: no allocation
		subsumed = buf[:0]
		for _, qp := range ct.preds {
			subsumed = append(subsumed, slices.ContainsFunc(d.Where, func(ip workload.Predicate) bool {
				return equalFoldCol(ip, qp) && implies(qp, ip) && implies(ip, qp)
			}))
		}
	}
	remains := func(i int) bool { return subsumed == nil || !subsumed[i] }

	// Needed columns: non-predicate usage plus the columns of predicates
	// that are not subsumed by the index filter.
	covers, usedCols := leafCoverage(hd.leaf, ct.cols, ct.preds, remains)
	covering := hd.clustered || covers

	// Seek: contiguous sargable prefix of the key columns. Equality
	// predicates extend the prefix; the first range predicate ends it.
	// While the seek predicates sit consecutively in ct.preds — always so
	// for one — the list is a capped window of it, ct.preds[lo:lo+len], and
	// costs no allocation; a gap copies it out.
	seekSel := 1.0
	var seek []workload.Predicate
	lo := 0
	for _, key := range d.KeyCols {
		i := ct.predOn(key, remains)
		if i < 0 || !ct.preds[i].Sargable() {
			break
		}
		seekSel *= ct.sels[i]
		switch {
		case len(seek) == 0:
			lo = i
			seek = ct.preds[i : i+1 : i+1]
		case lo >= 0 && i == lo+len(seek):
			seek = ct.preds[lo : i+1 : i+1]
		default:
			lo = -1
			seek = append(seek, ct.preds[i]) // a window is capped: this copies
		}
		if !ct.preds[i].IsEquality() {
			break
		}
	}

	t := ct.t
	idxRows := float64(hd.h.Rows)
	pages := hd.pages

	if seek != nil {
		matched := idxRows * seekSel
		cost := cm.RandPageIO*hd.height + cm.SeqPageIO*math.Ceil(seekSel*pages)
		cost += cm.CPUTuple*matched + hd.beta*matched*float64(usedCols)
		kind := "index-seek"
		if hd.clustered {
			kind = "clustered-seek"
		}
		ap := AccessPath{Table: t.Name, Index: hd.h, Kind: kind, Cost: cost,
			EstPageReads: hd.height + math.Ceil(seekSel*pages), Seek: seek}
		if !covering {
			// RID lookups for rows surviving all predicates resolvable on
			// the index; remaining predicates are applied after the lookup.
			frac := 1.0
			for i, p := range ct.preds {
				if remains(i) && containsFold(hd.leaf, p.Col) {
					frac *= ct.sels[i]
				}
			}
			lookups := idxRows * seekSel * frac
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
	if hd.clustered {
		kind = "clustered-scan"
	}
	cost := cm.SeqPageIO*pages + cm.CPUTuple*idxRows + hd.beta*idxRows*float64(usedCols)
	return AccessPath{Table: t.Name, Index: hd.h, Kind: kind, Cost: cost, EstPageReads: pages}, true
}

// leafCoverage walks the columns a read of the table needs — cols, then
// the column of each predicate that remains, each column once — and reports
// whether the leaf holds every one and how many it holds (at least 1, the
// per-column CPU multiplier). It builds no list: it runs once per what-if
// term.
func leafCoverage(leaf, cols []string, preds []workload.Predicate, remains func(int) bool) (covers bool, used int) {
	covers = true
	count := func(c string) {
		if containsFold(leaf, c) {
			used++
		} else {
			covers = false
		}
	}
	for _, c := range cols {
		count(c)
	}
	for i, p := range preds {
		if !remains(i) || containsFold(cols, p.Col) {
			continue
		}
		seen := false
		for j := range i {
			if remains(j) && storageEqualFold(preds[j].Col, p.Col) {
				seen = true
				break
			}
		}
		if !seen {
			count(p.Col)
		}
	}
	return covers, max(used, 1)
}

func (cm *CostModel) treeHeight(leafPages float64) float64 {
	if leafPages <= 1 {
		return 1
	}
	return 1 + math.Ceil(math.Log(leafPages)/math.Log(cm.Fanout))
}

func containsFold(list []string, s string) bool {
	for _, x := range list {
		if storageEqualFold(x, s) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// MV matching

// MVAnswer is how a grouped materialized view answers a query (MatchMV):
// each of the view's groups that passes Residual is one of the query's
// groups, with the query's aggregates read off the view's row.
type MVAnswer struct {
	// Residual lists the query's predicates the view did not apply. Each is
	// on a group-by column, so it keeps or drops whole groups.
	Residual []workload.Predicate
	// Groups[i] is the view group-by column that query group-by column i
	// reads.
	Groups []int
	// Aggs[i] is where query aggregate i comes from.
	Aggs []MVAgg
}

// MVAgg locates one query aggregate among a view's columns.
type MVAgg struct {
	// Src is the view aggregate read, or -1 for the view's hidden __count.
	Src int
	// Avg marks AVG(x) derived as view SUM(x) (Src) over __count: exact only
	// because x is NOT NULL, so that __count is COUNT(x).
	Avg bool
}

// MatchMV is the one rule for whether a view can answer a query, shared by
// the cost model, which costs the view's path only when it holds, and the
// store, which executes that path. It holds when the view's groups are the
// query's, so that every value the answer holds is one the view's grouping
// computed exactly as the query's would — no re-aggregation:
//   - the same fact table and joins, and the same GROUP BY columns;
//   - every view WHERE predicate in the query, and every other query
//     predicate on a group-by column;
//   - every plain select item a group-by column;
//   - every query aggregate one of the view's, COUNT(*) (the hidden
//     __count), or AVG(x) beside the view's SUM(x) where x is NOT NULL in
//     its table (db's schema decides).
//
// Both the view and the query must group or aggregate. Column references
// match by name, and by table where both name one.
func MatchMV(db *catalog.Database, mv *index.MVDef, q *workload.Query) (*MVAnswer, bool) {
	if len(q.Tables) == 0 || !strings.EqualFold(mv.Fact, q.Tables[0]) {
		return nil, false
	}
	if len(mv.GroupBy) == 0 && len(mv.Aggs) == 0 || len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		return nil, false
	}
	if !sameJoins(mv.Joins, q.Joins) || len(mv.GroupBy) != len(q.GroupBy) {
		return nil, false
	}
	ans := &MVAnswer{Groups: make([]int, len(q.GroupBy)), Aggs: make([]MVAgg, len(q.Aggs))}
	for i, g := range q.GroupBy {
		if ans.Groups[i] = colRefAt(mv.GroupBy, g); ans.Groups[i] < 0 {
			return nil, false
		}
	}
	for _, g := range mv.GroupBy {
		if colRefAt(q.GroupBy, g) < 0 {
			return nil, false
		}
	}
	for i, qa := range q.Aggs {
		var ok bool
		if ans.Aggs[i], ok = aggFrom(db, mv, qa); !ok {
			return nil, false
		}
	}
	for _, c := range q.Select {
		if colRefAt(mv.GroupBy, c) < 0 {
			return nil, false
		}
	}
	// Every MV WHERE predicate must appear in the query (exact match), or
	// the MV is missing rows the query wants; the remaining query predicates
	// must be on group-by columns so they can filter the MV rows.
	for _, mp := range mv.Where {
		if !predIn(q.Preds, mp) {
			return nil, false
		}
	}
	for _, qp := range q.Preds {
		if predIn(mv.Where, qp) {
			continue
		}
		if colRefAt(mv.GroupBy, workload.ColRef{Table: qp.Table, Col: qp.Col}) < 0 {
			return nil, false
		}
		ans.Residual = append(ans.Residual, qp)
	}
	return ans, true
}

func predIn(list []workload.Predicate, p workload.Predicate) bool {
	for _, x := range list {
		if predEqual(x, p) {
			return true
		}
	}
	return false
}

// mvAccess costs scanning/seeking the MV index with the residual predicates.
func (cm *CostModel) mvAccess(hd *handle, residual []workload.Predicate, q *workload.Query) AccessPath {
	h := hd.h
	rows := float64(h.Rows)
	pages := hd.pages
	usedCols := len(hd.cols)
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
	// column: the first such one positions the seek.
	var seek []workload.Predicate
	if len(h.Def.KeyCols) > 0 {
		lead := h.Def.KeyCols[0]
		for i, p := range residual {
			if p.Sargable() && (qualifiedEqualFold(p.Table, p.Col, lead) || storageEqualFold(p.Col, lead)) {
				seek = residual[i : i+1 : i+1]
				break
			}
		}
	}
	var cost, reads float64
	kind := "mv-scan"
	if seek != nil {
		kind = "mv-seek"
		cost = cm.RandPageIO*hd.height + cm.SeqPageIO*math.Ceil(sel*pages)
		cost += cm.CPUTuple*sel*rows + hd.beta*sel*rows*float64(usedCols)
		reads = hd.height + math.Ceil(sel*pages)
	} else {
		cost = cm.SeqPageIO*pages + cm.CPUTuple*rows + hd.beta*rows*float64(usedCols)
		reads = pages
	}
	return AccessPath{Table: h.Def.Table, Index: h, Kind: kind, Rows: sel * rows, Cost: cost, EstPageReads: reads, Seek: seek}
}

// qualifiedEqualFold reports whether name is index.QualifiedCol of the
// column reference ("table_col", or "col" when unqualified), ignoring case.
func qualifiedEqualFold(table, col, name string) bool {
	if table == "" {
		return storageEqualFold(col, name)
	}
	n := len(table)
	return len(name) == n+1+len(col) && name[n] == '_' &&
		storageEqualFold(name[:n], table) && storageEqualFold(name[n+1:], col)
}

// mvPredSelectivity estimates a residual predicate's selectivity using the
// underlying base-table statistics.
func (cm *CostModel) mvPredSelectivity(p workload.Predicate, q *workload.Query) float64 {
	if p.Table != "" {
		if t := cm.DB.Table(p.Table); t != nil && t.Schema.Has(p.Col) {
			return PredicateSelectivity(t, p)
		}
	}
	for _, tn := range q.Tables {
		if t := cm.DB.Table(tn); t != nil && t.Schema.Has(p.Col) {
			return PredicateSelectivity(t, p)
		}
	}
	return 0.3
}

func sameJoins(a, b []workload.Join) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if joinEqual(x, y) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func joinEqual(x, y workload.Join) bool {
	return storageEqualFold(x.LeftTable, y.LeftTable) && storageEqualFold(x.LeftCol, y.LeftCol) &&
		storageEqualFold(x.RightTable, y.RightTable) && storageEqualFold(x.RightCol, y.RightCol)
}

// colRefAt returns the position in list of the column c names, or -1:
// names equal ignoring case, and tables equal where both name one.
func colRefAt(list []workload.ColRef, c workload.ColRef) int {
	for i, x := range list {
		if sameCol(x, c) {
			return i
		}
	}
	return -1
}

func sameCol(x, c workload.ColRef) bool {
	return storageEqualFold(x.Col, c.Col) && (x.Table == "" || c.Table == "" || storageEqualFold(x.Table, c.Table))
}

// aggFrom locates query aggregate a among the view's (see MatchMV).
func aggFrom(db *catalog.Database, mv *index.MVDef, a workload.Aggregate) (MVAgg, bool) {
	sumAt := -1
	for i, x := range mv.Aggs {
		if sameCol(x.Col, a.Col) { // COUNT(*) names no column, and matches only COUNT(*)
			if x.Func == a.Func {
				return MVAgg{Src: i}, true
			}
			if x.Func == workload.AggSum && sumAt < 0 {
				sumAt = i
			}
		}
	}
	switch {
	case a.Func == workload.AggCount && a.Col.Col == "":
		return MVAgg{Src: -1}, true
	case a.Func == workload.AggAvg && sumAt >= 0 && notNull(db, mv, a.Col):
		return MVAgg{Src: sumAt, Avg: true}, true
	}
	return MVAgg{}, false
}

// notNull reports whether the view's column c is declared NOT NULL in the
// table it comes from (MVDef.ColumnTable).
func notNull(db *catalog.Database, mv *index.MVDef, c workload.ColRef) bool {
	t := mv.ColumnTable(db, c)
	if t == nil {
		return false
	}
	return !t.Schema.Columns[t.Schema.ColIndex(c.Col)].Nullable
}

// predEqual compares two predicates structurally: identifiers ignoring case,
// the same operator, and literals of the same kind comparing equal — 'FL'
// and 'fl' are different predicates.
func predEqual(a, b workload.Predicate) bool {
	return a.Op == b.Op && storageEqualFold(a.Table, b.Table) && storageEqualFold(a.Col, b.Col) &&
		literalEqual(a.Lo, b.Lo) && (a.Op != workload.OpBetween || literalEqual(a.Hi, b.Hi))
}

func literalEqual(a, b storage.Value) bool {
	return a.Kind == b.Kind && a.Compare(b) == 0
}

// ---------------------------------------------------------------------------
// Write costing

// baseWrite costs a write's work on the table's base structure — the
// clustered index cl, or the heap when cl is nil — for the n rows the
// statement writes.
//
// A bulk INSERT appends (heap) or sort-merges (clustered) whole pages, so its
// I/O shrinks with the clustered index's compression. Predicated updates and
// deletes instead dirty the pages their rows happen to live in, so their
// write I/O does not shrink with compression — what differentiates the
// methods is the Appendix A α(method) CPU paid per tuple written. Updating a
// clustered key column moves the row, which costs a delete+reinsert instead
// of an in-place rewrite.
func (cm *CostModel) baseWrite(cs *compiledStmt, cl *handle) AccessPath {
	t, n := cs.tables[0].t, cs.n
	ap := AccessPath{Table: t.Name, Rows: n}
	alpha := cm.Alpha[compress.None]
	if cl != nil {
		ap.Index = cl.h
		alpha = cl.alpha
	}
	if cs.stmt.Insert != nil {
		ap.Kind = "base-insert"
		basePages := n * t.AvgRowWidth() / storage.UsablePageBytes
		baseCPU := cm.CPUInsert * n
		var baseIO float64
		if cl != nil {
			// Clustered insert: bulk sort + merge, plus compression CPU.
			baseIO = cm.SeqPageIO * basePages * 2 * cl.h.CF()
			baseCPU += alpha * n
		} else {
			baseIO = cm.SeqPageIO * basePages
		}
		ap.Cost = baseIO + baseCPU
		return ap
	}
	writePages := n * t.AvgRowWidth() / storage.UsablePageBytes
	baseIO := cm.SeqPageIO * writePages
	baseCPU := cm.CPUInsert*n + alpha*n
	ap.Kind = "base-delete"
	if u := cs.stmt.Update; u != nil {
		ap.Kind = "base-update"
		if cl != nil && touchesAny(u, cl.h.Def.KeyCols) {
			baseIO *= 2
			baseCPU += cm.CPUInsert * n
		}
	}
	ap.Cost = baseIO + baseCPU
	return ap
}

// maintain costs keeping index hd in step with a write of cs.n rows to its
// table; ok is false when the write leaves the index alone (an UPDATE that
// touches none of its columns). Inserts and deletes touch every index.
func (cm *CostModel) maintain(cs *compiledStmt, hd *handle) (AccessPath, bool) {
	n := cs.n
	affected, moves := n*hd.writeSel, false
	if u := cs.stmt.Update; u != nil {
		var ok bool
		if affected, moves, ok = updateAffected(u, hd, n); !ok {
			return AccessPath{}, false
		}
	}
	ap := AccessPath{Table: cs.tables[0].t.Name, Index: hd.h, Kind: "index-maintain", Rows: affected}
	if cs.stmt.Insert != nil {
		// Bulk maintenance writes whole leaf pages, so it shrinks with CF.
		writePages := affected * hd.entryWidth / storage.UsablePageBytes * hd.h.CF()
		io := cm.SeqPageIO * writePages * 2
		cpu := cm.CPUInsert*affected + hd.alpha*affected
		ap.Cost = io + cpu
		return ap, true
	}
	// A tree descent to locate the entries, leaf-page writes (twice when
	// entries move), per-entry CPU and the Appendix A α(method) compression
	// CPU. The leaf write I/O is method-independent — scattered maintenance
	// dirties whole pages regardless of how tightly they pack — so compressed
	// variants compete on α alone, which is exactly the trade-off that makes
	// DTAc back off PAGE under update-heavy mixes.
	writePages := affected * hd.entryWidth / storage.UsablePageBytes
	passes := 1.0
	if moves {
		passes = 2
	}
	io := cm.RandPageIO*hd.height + cm.SeqPageIO*writePages*passes
	cpu := cm.CPUInsert*affected*passes + hd.alpha*affected
	ap.Cost = io + cpu
	return ap, true
}

// updateAffected decides whether the update maintains index hd, and with how
// many affected entries — touched-column awareness: an index that stores
// none of the SET columns needs no maintenance. moves reports whether entries
// relocate (key or partial-filter columns touched: delete+reinsert) rather
// than being rewritten in place (include columns touched).
func updateAffected(u *workload.Update, hd *handle, n float64) (affected float64, moves, ok bool) {
	d := hd.h.Def
	if hd.mv {
		if !mvTouchedByUpdate(d.MV, u) {
			return 0, false, false
		}
		return n * hd.writeSel, true, true
	}
	if d.IsPartial() {
		// Touching the filter column migrates rows in and out of the index;
		// every qualifying row may need an entry inserted or removed.
		for _, p := range d.Where {
			if u.Touches(p.Col) {
				return n, true, true
			}
		}
		if !touchesAny(u, hd.cols) {
			return 0, false, false
		}
		return n * hd.writeSel, touchesAny(u, d.KeyCols), true
	}
	if !touchesAny(u, hd.leaf) {
		return 0, false, false
	}
	return n, touchesAny(u, d.KeyCols), true
}

// touchesAny reports whether the update rewrites any of the columns.
func touchesAny(u *workload.Update, cols []string) bool {
	for _, c := range cols {
		if u.Touches(c) {
			return true
		}
	}
	return false
}

// mvTouchedByUpdate reports whether an update on the MV's fact table touches
// any column the MV materializes or filters on (group-by, aggregate input,
// WHERE or fact-side join columns).
func mvTouchedByUpdate(mv *index.MVDef, u *workload.Update) bool {
	for _, g := range mv.GroupBy {
		if u.Touches(g.Col) {
			return true
		}
	}
	for _, a := range mv.Aggs {
		if a.Col.Col != "" && u.Touches(a.Col.Col) {
			return true
		}
	}
	for _, p := range mv.Where {
		if u.Touches(p.Col) {
			return true
		}
	}
	for _, j := range mv.Joins {
		if strings.EqualFold(j.LeftTable, mv.Fact) && u.Touches(j.LeftCol) {
			return true
		}
		if strings.EqualFold(j.RightTable, mv.Fact) && u.Touches(j.RightCol) {
			return true
		}
	}
	return false
}

func mvWhereSelectivity(db *catalog.Database, mv *index.MVDef) float64 {
	t := db.Table(mv.Fact)
	if t == nil {
		return 1
	}
	sel := 1.0
	for _, p := range mv.Where {
		if t.Schema.Has(p.Col) {
			sel *= PredicateSelectivity(t, p)
		}
	}
	return sel
}
