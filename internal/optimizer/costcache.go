package optimizer

import (
	"sync"
	"sync/atomic"

	"cadb/internal/catalog"
	"cadb/internal/workload"
)

// The what-if memo: compiled statements, interned structures, atomic terms.
//
// The cost of a statement under a configuration decomposes the way the cost
// model does mathematically: per table a min over the access paths of the
// structures on it, for a write a sum of per-structure maintenance costs —
// and each of those terms depends on the statement and on one structure,
// never on what else the configuration holds. So every costing entry point
// (Plan, Cost, WorkloadCost, the Evaluator) goes through one
// routine, memo.price, over three things computed once each:
//
//   - a compiled statement per *workload.Statement: its tables resolved in the
//     catalog, each table's predicates with their selectivities, the columns
//     it needs, its output rows and its heap-scan path; for a write the
//     qualifying-row count and the heap write path;
//   - a handle per *HypoIndex: everything the model derives from the
//     definition and the sizes — identity, table ordinal, column sets, α/β
//     design means, pages, tree height, entry width;
//   - a term per (compiled statement, handle): the access path through the
//     structure, and for writes its maintenance and base-structure costs.
//     A query's term is that path and nothing else, one allocation: the
//     path's seek list is a window of the compiled predicates whenever they
//     sit there in key order, and its column coverage is counted, not
//     listed. The maintenance and base costs sit in a writeTerm that only a
//     write statement's terms allocate.
//
// price then does O(configuration) integer compares and float mins/sums in
// the order the plan search always used, so totals are bit-identical to it
// (reference_test.go keeps that search as the differential oracle).
//
// Handles and terms are keyed by *HypoIndex pointer. Replacing an index with
// a resized copy therefore gets a fresh handle and fresh terms; resizing one
// in place after it has been costed leaves them — and every Configuration's
// cached SizeBytes — stale, so replace, don't resize in place. Anything else
// a term depends on changing (table rows or statistics, cost-model constants,
// a statement edited in place) needs ResetCostCache.
//
// The memo is safe for concurrent use and reads take no lock: the
// enumeration worker pool prices overlapping (statement, structure) pairs
// from many goroutines at once. Two workers missing the same term both
// compute it; the values are equal, so whichever store lands last is fine.

type memo struct {
	cm      *CostModel
	stmts   sync.Map // *workload.Statement -> *compiledStmt
	handles sync.Map // *HypoIndex -> *handle
	tables  sync.Map // normTable(name) -> int32 ordinal
	// nextOrd and nextTable number handles (densely, up to lost races) and
	// tables.
	nextOrd, nextTable atomic.Int32

	hits, misses atomic.Uint64
}

// ResetCostCache drops every compiled statement, interned structure and
// memoized term, and zeroes the hit/miss counters. Call it whenever
// something a term depends on other than the (statement, structure) pair
// changes: table rows or statistics mutated (e.g. after
// Table.InvalidateStats), cost-model constants adjusted, a statement edited
// or a HypoIndex resized in place. Not safe concurrently with costing; an
// Evaluator built before the reset keeps pricing from the dropped memo.
func (cm *CostModel) ResetCostCache() {
	cm.memo.Store(&memo{cm: cm})
}

// CostCacheStats reports how many atomic-term lookups were served from the
// memo (hits) and how many had to be computed (misses).
func (cm *CostModel) CostCacheStats() (hits, misses uint64) {
	m := cm.memo.Load()
	return m.hits.Load(), m.misses.Load()
}

// tableOrd interns a table name. Statements and structures compare these
// ordinals instead of names, so they agree however each spells the table.
func (m *memo) tableOrd(name string) int32 {
	return loadOrBuild(&m.tables, normTable(name), func(string) int32 { return m.nextTable.Add(1) })
}

// ---------------------------------------------------------------------------
// Interned structures

// handle is a *HypoIndex as the hot path sees it.
type handle struct {
	h   *HypoIndex
	ord int32  // dense, indexes termTable
	id  string // h.ID()
	// tbl is the ordinal of the table whose statements the structure can
	// affect: its base table, or an MV's fact table.
	tbl           int32
	mv, clustered bool // clustered is never set for an MV index
	// cols is Def.Columns(); leaf is what a leaf entry stores and can cover —
	// every table column for a clustered index, cols otherwise.
	cols, leaf  []string
	alpha, beta float64
	pages       float64 // leaf pages
	height      float64 // tree descent, in page reads
	entryWidth  float64 // average uncompressed leaf-entry width
	// writeSel is the fraction of the rows a write touches that the
	// structure holds: its filter's selectivity for a partial or MV index.
	writeSel float64
}

func (m *memo) intern(h *HypoIndex) *handle {
	return loadOrBuild(&m.handles, h, m.newHandle)
}

// loadOrBuild returns the map's value for the key, building it on first use.
// Racing first uses may each build; one result is kept.
func loadOrBuild[K comparable, V any](sm *sync.Map, key K, build func(K) V) V {
	v, ok := sm.Load(key)
	if !ok {
		v, _ = sm.LoadOrStore(key, build(key))
	}
	return v.(V)
}

func (m *memo) newHandle(h *HypoIndex) *handle {
	cm, d := m.cm, h.Def
	hd := &handle{
		h:          h,
		ord:        m.nextOrd.Add(1) - 1,
		id:         h.ID(),
		tbl:        m.tableOrd(h.table()),
		mv:         d.MV != nil,
		clustered:  d.Clustered && d.MV == nil,
		cols:       d.Columns(),
		pages:      float64(h.Pages()),
		entryWidth: 32,
		writeSel:   1,
	}
	hd.height = cm.treeHeight(hd.pages)
	if h.Rows > 0 {
		hd.entryWidth = float64(h.UncompressedBytes) / float64(h.Rows)
	}
	t := cm.DB.Table(d.Table)
	// The design means weigh every column a leaf entry carries: all table
	// columns for a clustered index, key + include columns plus the row
	// locator otherwise.
	hd.leaf = hd.cols
	design := append(hd.cols[:len(hd.cols):len(hd.cols)], "__rid")
	if d.Clustered && t != nil {
		design = t.Schema.Names()
		if hd.clustered {
			hd.leaf = design
		}
	}
	hd.alpha = designMean(d, design, cm.Alpha)
	hd.beta = designMean(d, design, cm.Beta)
	switch {
	case hd.mv:
		hd.writeSel = mvWhereSelectivity(cm.DB, d.MV)
	case d.IsPartial() && t != nil:
		hd.writeSel = CombinedSelectivity(t, d.Where)
	}
	return hd
}

// resolve interns the configuration's members, in insertion order.
func (m *memo) resolve(cfg *Configuration) []*handle {
	idxs := cfg.Indexes()
	out := make([]*handle, len(idxs))
	for i, h := range idxs {
		out[i] = m.intern(h)
	}
	return out
}

// ---------------------------------------------------------------------------
// Compiled statements

// compiledStmt is everything about a statement that no configuration
// changes.
type compiledStmt struct {
	stmt *workload.Statement
	// scope lists the ordinals of the tables whose plain indexes can affect
	// the plan: every table of a query, the written table of a write.
	// scope[0] is also the only fact table whose MV indexes can (MatchMV
	// accepts no others, and a write maintains the MVs over its table).
	scope []int32
	// tables holds the tables that resolved in the catalog: a query's in
	// FROM order, a write's one. A write on an unknown table has none and
	// costs nothing.
	tables []compiledTable

	groupCPU float64    // a query's grouping/aggregation CPU on the final row stream
	n        float64    // rows a write inserts or qualifies
	heapBase AccessPath // the write's base-structure work on a heap

	terms termTable
}

// compiledTable is one table access of a statement.
type compiledTable struct {
	t     *catalog.Table
	tbl   int32
	preds []workload.Predicate
	sels  []float64 // PredicateSelectivity of each pred
	// cols lists the columns needed beyond the WHERE predicates'.
	cols    []string
	outRows float64
	heap    AccessPath
	// joinCPU is the hash-join cost of bringing this table into the running
	// row stream; the driving table (first in FROM) pays none.
	joinCPU float64
}

// predOn returns the first live predicate on the column, or -1.
func (ct *compiledTable) predOn(col string, live func(int) bool) int {
	for i, p := range ct.preds {
		if live(i) && storageEqualFold(p.Col, col) {
			return i
		}
	}
	return -1
}

func (m *memo) compile(s *workload.Statement) *compiledStmt {
	return loadOrBuild(&m.stmts, s, m.newCompiled)
}

func (m *memo) newCompiled(s *workload.Statement) *compiledStmt {
	cm := m.cm
	cs := &compiledStmt{stmt: s}
	access := func(t *catalog.Table, preds []workload.Predicate, cols []string) compiledTable {
		ct := compiledTable{t: t, tbl: m.tableOrd(t.Name), preds: preds, cols: cols,
			sels: make([]float64, len(preds))}
		sel := 1.0 // independence, as CombinedSelectivity
		for i, p := range preds {
			ct.sels[i] = PredicateSelectivity(t, p)
			sel *= ct.sels[i]
		}
		ct.outRows = float64(t.RowCount()) * sel
		pages := float64(t.HeapPages())
		ct.heap = AccessPath{Table: t.Name, Kind: "heap-scan", Rows: ct.outRows,
			Cost:         cm.SeqPageIO*pages + cm.CPUTuple*float64(t.RowCount()),
			EstPageReads: pages}
		return ct
	}
	if q := s.Query; q != nil {
		has := func(table, col string) bool {
			t := cm.DB.Table(table)
			return t != nil && t.Schema.Has(col)
		}
		var joinRows float64
		for ti, name := range q.Tables {
			cs.scope = append(cs.scope, m.tableOrd(name))
			t := cm.DB.Table(name)
			if t == nil {
				continue
			}
			ct := access(t, q.PredsOn(name, has), q.NonPredColumnsOn(name, has))
			if ti == 0 {
				joinRows = ct.outRows
			} else {
				// FK join: build on the dimension, probe with the running side.
				ct.joinCPU = cm.CPUJoinTuple * (ct.outRows + joinRows)
			}
			cs.tables = append(cs.tables, ct)
		}
		if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
			cs.groupCPU = cm.CPUTuple * joinRows * 0.5
		}
		return cs
	}
	name, ok := s.WriteTable()
	if !ok {
		return cs
	}
	cs.scope = []int32{m.tableOrd(name)}
	if t := cm.DB.Table(name); t != nil {
		var cols []string
		if s.Update != nil {
			// The touched columns must be fetched so the rewrite can happen.
			cols = s.Update.SetCols()
		}
		ct := access(t, s.WritePreds(), cols)
		cs.tables, cs.n = []compiledTable{ct}, ct.outRows
		if s.Insert != nil {
			cs.n = float64(s.Insert.Rows)
		}
		cs.heapBase = cm.baseWrite(cs, nil)
	}
	return cs
}

// affectedBy reports whether adding or removing the structure can change the
// statement's plan — the Evaluator's relevance rule.
func (cs *compiledStmt) affectedBy(hd *handle) bool {
	if hd.mv {
		return len(cs.scope) > 0 && cs.scope[0] == hd.tbl
	}
	for _, tbl := range cs.scope {
		if tbl == hd.tbl {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Atomic terms

// term is what one structure contributes to one statement. A query's term
// is path and ok alone; a write's also points at its maintenance and base
// costs, so only write statements pay for them.
type term struct {
	// path reads through the structure: a query table's access path, the
	// whole query answered from an MV, or a predicated write's row lookup.
	path AccessPath
	ok   bool
	w    *writeTerm // nil for a query
}

// writeTerm is the part of a term only writes have: maint is the write's
// maintenance of the structure, base its work on the structure as the
// table's clustered base.
type writeTerm struct {
	maint      AccessPath
	maintained bool
	base       AccessPath
}

func (m *memo) newTerm(cs *compiledStmt, ct *compiledTable, hd *handle) *term {
	cm, q, t := m.cm, cs.stmt.Query, &term{}
	switch {
	case q == nil:
		t.w = &writeTerm{}
		if !hd.mv && cs.stmt.Insert == nil {
			t.path, t.ok = cm.indexPath(ct, hd)
		}
		if hd.clustered {
			t.w.base = cm.baseWrite(cs, hd)
		}
		t.w.maint, t.w.maintained = cm.maintain(cs, hd)
	case hd.mv:
		if ans, ok := MatchMV(cm.DB, hd.h.Def.MV, q); ok {
			t.path, t.ok = cm.mvAccess(hd, ans.Residual, q), true
		}
	default:
		t.path, t.ok = cm.indexPath(ct, hd)
	}
	return t
}

// termTable maps handle ordinals to a statement's terms. Slots are atomic
// and the slot array is republished on growth, so reads and writes take no
// lock; a store racing a growth can be lost, which only costs a recompute.
type termTable struct {
	grow  sync.Mutex
	slots atomic.Pointer[[]atomic.Pointer[term]]
}

func (tt *termTable) get(ord int32) *term {
	if s := tt.slots.Load(); s != nil && int(ord) < len(*s) {
		return (*s)[ord].Load()
	}
	return nil
}

func (tt *termTable) put(ord int32, t *term) {
	s := tt.slots.Load()
	if s == nil || int(ord) >= len(*s) {
		tt.grow.Lock()
		if s = tt.slots.Load(); s == nil || int(ord) >= len(*s) {
			grown := make([]atomic.Pointer[term], 2*(int(ord)+1))
			if s != nil {
				for i := range *s {
					grown[i].Store((*s)[i].Load())
				}
			}
			s = &grown
			tt.slots.Store(s)
		}
		tt.grow.Unlock()
	}
	(*s)[ord].Store(t)
}

// ---------------------------------------------------------------------------
// Pricing

// pricing is one price call's state: the statement and the memo counters it
// will flush. The configuration — its interned members in insertion order —
// is passed alongside rather than held, so a caller's stack-built member
// list stays on the stack.
type pricing struct {
	m            *memo
	cs           *compiledStmt
	hits, misses uint64
}

// price costs the compiled statement under the configuration (its interned
// members in insertion order). A non-nil plan also receives the access
// paths; the total is the same float either way.
func (m *memo) price(cs *compiledStmt, cfg []*handle, plan *Plan) float64 {
	p := pricing{m: m, cs: cs}
	var total float64
	switch {
	case cs.stmt.Query != nil:
		total = p.query(cfg, plan)
	case len(cs.tables) > 0:
		total = p.write(cfg, plan)
	}
	if p.hits > 0 {
		m.hits.Add(p.hits)
	}
	if p.misses > 0 {
		m.misses.Add(p.misses)
	}
	return total
}

func (p *pricing) term(ct *compiledTable, hd *handle) *term {
	if t := p.cs.terms.get(hd.ord); t != nil {
		p.hits++
		return t
	}
	p.misses++
	t := p.m.newTerm(p.cs, ct, hd)
	p.cs.terms.put(hd.ord, t)
	return t
}

// clusteredOn returns the table's base structure: the first clustered index
// on it in the configuration, or nil for a heap.
func clusteredOn(cfg []*handle, ct *compiledTable) *handle {
	for _, hd := range cfg {
		if hd.clustered && hd.tbl == ct.tbl {
			return hd
		}
	}
	return nil
}

// bestAccess picks the cheapest access path for one table: the base
// structure (clustered index when usable, else the heap), then every index
// on the table in insertion order, first strictly cheaper wins. The caller
// owns Rows: every path of a table produces ct.outRows.
func (p *pricing) bestAccess(cfg []*handle, ct *compiledTable) *AccessPath {
	best := &ct.heap
	if cl := clusteredOn(cfg, ct); cl != nil {
		if t := p.term(ct, cl); t.ok {
			best = &t.path
		}
	}
	for _, hd := range cfg {
		if hd.mv || hd.tbl != ct.tbl {
			continue
		}
		if t := p.term(ct, hd); t.ok && t.path.Cost < best.Cost {
			best = &t.path
		}
	}
	return best
}

func (plan *Plan) add(ap *AccessPath, rows float64) {
	if plan != nil {
		plan.Paths = append(plan.Paths, *ap)
		plan.Paths[len(plan.Paths)-1].Rows = rows
	}
}

func (p *pricing) query(cfg []*handle, plan *Plan) float64 {
	cs := p.cs
	var total float64
	for i := range cs.tables {
		ct := &cs.tables[i]
		best := p.bestAccess(cfg, ct)
		plan.add(best, ct.outRows)
		total += best.Cost
		total += ct.joinCPU // zero for the driving table
	}
	total += cs.groupCPU // zero without grouping or aggregates
	// An MV index that matches the whole query can replace the joins
	// entirely.
	var mv *AccessPath
	for _, hd := range cfg {
		if !hd.mv || !cs.affectedBy(hd) {
			continue
		}
		if t := p.term(nil, hd); t.ok && (mv == nil || t.path.Cost < mv.Cost) {
			mv = &t.path
		}
	}
	if mv != nil && mv.Cost < total {
		if plan != nil {
			*plan = Plan{Paths: []AccessPath{*mv}, Note: "answered from MV"}
		}
		return mv.Cost
	}
	return total
}

// write prices INSERT, UPDATE and DELETE following Appendix A: locate the
// qualifying rows through the cheapest access path (predicated writes
// only), rewrite the base structure, then maintain every other index on the
// table, and every MV over it, in insertion order.
func (p *pricing) write(cfg []*handle, plan *Plan) float64 {
	cs, ct := p.cs, &p.cs.tables[0]
	var total float64
	if cs.stmt.Insert == nil {
		lookup := p.bestAccess(cfg, ct)
		plan.add(lookup, ct.outRows)
		total += lookup.Cost
	}
	cl, base := clusteredOn(cfg, ct), &cs.heapBase
	if cl != nil {
		base = &p.term(ct, cl).w.base
	}
	plan.add(base, cs.n)
	total += base.Cost
	for _, hd := range cfg {
		// The clustered index is the base structure above; skip it by
		// identity, not by pointer — reached through a different HypoIndex
		// (a duplicate entry, or a copy introduced by Replace) it must not be
		// double-counted as secondary maintenance.
		if hd.tbl != ct.tbl || (cl != nil && (hd == cl || hd.id == cl.id)) {
			continue
		}
		if w := p.term(ct, hd).w; w.maintained {
			plan.add(&w.maint, w.maint.Rows)
			total += w.maint.Cost
		}
	}
	return total
}
