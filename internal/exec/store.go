package exec

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// IOStats counts the physical work of a segment-backed execution. It is an
// alias of storage.IOStats so codecs, cursors and the executor share one
// accounting currency (see that type for the field semantics).
type IOStats = storage.IOStats

// Store is the physical half of the database: every table materialized as
// one base structure — its clustered index, a key-ordered structure carrying
// every column, when the design has one, else a page-backed heap segment in
// insertion order — plus a key-ordered segment for every non-partial
// secondary and every grouped materialized view of the design. A table is
// stored once: a clustered table has no heap. The first statement deploys
// the whole design — every structure of every table, and every view — in one
// planned build, then sets up the store's planner: the optimizer's cost model
// over the catalog statistics as deploy found them, and a configuration of
// the structures deploy built, at their built sizes.
//
// Every statement runs the plan that cost model gives it (CostModel.Plan,
// memoized per statement): per table, the heap, or an ordered structure's
// whole page range for a scan and its composite-key range for a seek, looked
// up in the table's base structure by RID when the structure lacks a column
// the statement reads; or, for a grouped query the plan answers from a view,
// the view's page range, its rows mapped onto the query's groups (see
// runFromView). The store makes no path choice of its own. Queries run as an
// operator pipeline over streaming cursors — pages decode lazily, only the
// columns the statement can observe are reconstructed, and sargable
// predicates are evaluated inside the codec — and report their I/O.
//
// UPDATE and DELETE locate their rows through the same cursors. An UPDATE
// that moves no row of a structure records the rewritten rows in that
// structure's in-memory overlay, which its cursors merge as they decode, and
// rebuilds nothing (see RunUpdate). A DELETE, and an UPDATE of a key column,
// leave the structures they move rows in stale; any write that changes a row
// leaves stale every view built from that row's table; and the next
// statement that reads a stale structure rebuilds it. Results are byte-identical to the plain-row oracle (Run)
// whatever order an access path delivers rows in: both widen, filter and
// group through the same operators, aggregation is exact, and the shared
// shaping tail sorts by a total order.
type Store struct {
	db     *catalog.Database
	tables map[string][]*segHandle // lowercased table or view -> its structures, a table's base structure first
	views  []*segHandle            // the materialized views, in design order
	all    []*segHandle            // every handle in ID order, as deployed and spilled
	design []*segHandle            // the ordered structures in design order: the planner's configuration

	// The planner, set up by deploy: a cost model over a snapshot of the
	// catalog's statistics — later writes never make a plan rebuild them —
	// the configuration of the built structures, and each statement's plan,
	// keyed by its Query, Update or Delete.
	cm    *optimizer.CostModel
	cfg   *optimizer.Configuration
	plans map[any]*optimizer.Plan

	// Disk-backed mode (SetDiskBacked): segments spill their pages to files
	// under diskDir and every page access goes through the pool.
	diskDir  string
	pool     *bufferpool.Pool
	spillSeq int

	// prefetchWindow/Workers enable async readahead on sequential cursors;
	// off by default so exact-counter tests and single-stream baselines see
	// unchanged behavior.
	prefetchWindow  int
	prefetchWorkers int
}

// SetPrefetch enables async readahead on sequential page access (scans,
// range seeks, RID lookups): cursors keep a window of upcoming pages loading
// on workers goroutines while the current page decodes. window <= 0
// disables; workers <= 0 picks the default worker count. Prefetch is
// speculative — it changes PoolHits/PoolMisses splits and adds
// PoolPrefetched accounting but never changes results.
func (st *Store) SetPrefetch(window, workers int) {
	if window <= 0 {
		st.prefetchWindow, st.prefetchWorkers = 0, 0
		return
	}
	if workers <= 0 {
		workers = storage.DefaultPrefetchWorkers
	}
	st.prefetchWindow, st.prefetchWorkers = window, workers
}

// SetDiskBacked switches the store to the disk-backed path: every segment
// built from now on is spilled to a file under dir and its pages are served
// through the pool (pinned on fetch, loaded from disk on a miss, evicted
// under memory pressure). Call before the first statement — it deploys the
// design — so every segment takes the same path.
func (st *Store) SetDiskBacked(dir string, pool *bufferpool.Pool) {
	st.diskDir, st.pool = dir, pool
}

// SetPool swaps the buffer pool: already-spilled segments keep their on-disk
// files but start fetching through the new pool (their old frames are
// invalidated), and future spills use it too. This is what lets a pool-size
// sweep reuse one set of spill files.
func (st *Store) SetPool(pool *bufferpool.Pool) error {
	st.pool = pool
	for _, h := range st.all {
		if h.si != nil && h.si.Seg.Backed() && !h.stale {
			if err := h.si.Seg.Repool(pool); err != nil {
				return err
			}
		}
	}
	return nil
}

// Pool returns the buffer pool of a disk-backed store (nil otherwise).
func (st *Store) Pool() *bufferpool.Pool { return st.pool }

// DiskBytes sums the on-disk payload bytes of every currently built segment —
// the store's total working set under the disk-backed path.
func (st *Store) DiskBytes() int64 {
	var n int64
	for _, h := range st.all {
		if h.si != nil && !h.stale {
			n += h.si.Seg.DiskBytes()
		}
	}
	return n
}

// Close releases every disk-backed segment: pool frames are invalidated and
// the spill files removed. The store is unusable afterwards.
func (st *Store) Close() {
	for _, h := range st.all {
		if h.si != nil {
			h.si.Seg.CloseBacking()
		}
	}
}

// segHandle is one segment of the design, built at deploy and after writes:
// a heap or an ordered structure. A table's base structure — the one RID
// lookups read — is its clustered structure, or its heap when it has none.
type segHandle struct {
	def *index.Def // the materialization def (synthetic for heaps)
	id  string     // stable identity for deterministic build order
	// hypo is what the planner knows of an ordered structure: the design's
	// own definition (a clustered index as designed, not its all-column
	// materialization) at its built sizes once deployed. Nil for heaps.
	hypo  *optimizer.HypoIndex
	si    *index.SegmentIndex
	stale bool
	// view and reads are set on a materialized view's handle: the layout of
	// its grouped rows, and the lowercased tables building it reads
	// (index.MVSchema).
	view  *storage.Schema
	reads []string
}

// NewStore materializes the physical design over the database. A
// clustered definition becomes its table's base structure: key-ordered,
// carrying every column and the RID. Only a table without one gets a heap. A
// grouped materialized view is built as its index, keyed and carrying
// columns by the view's own names. Partial index definitions, join-projection
// views and view indexes that leave out a column of their view are accepted
// but not built, so no plan reads them.
func NewStore(db *catalog.Database, defs []*index.Def) (*Store, error) {
	st := &Store{db: db, tables: make(map[string][]*segHandle)}
	base := make(map[string]*segHandle) // lowercased table -> clustered structure
	secs := make(map[string][]*segHandle)
	for _, d := range defs {
		if d.IsPartial() || d.IsMV() && len(d.MV.GroupBy) == 0 && len(d.MV.Aggs) == 0 {
			continue
		}
		h := &segHandle{def: d, id: d.ID(), hypo: optimizer.NewHypoIndex(d, 0, 0, 0)}
		var t *catalog.Table
		var schema *storage.Schema
		if d.IsMV() {
			var err error
			if h.view, h.reads, err = index.MVSchema(db, d.MV); err != nil {
				return nil, fmt.Errorf("exec: index %s: %w", d, err)
			}
			if !covers(d, h.view.Names()) {
				continue
			}
			if db.Table(d.Table) != nil {
				return nil, fmt.Errorf("exec: view %s is named as a table", d.Table)
			}
			schema = h.view
		} else {
			if t = db.Table(d.Table); t == nil {
				return nil, fmt.Errorf("exec: index %s on unknown table %q", d, d.Table)
			}
			schema = t.Schema
		}
		// Validate eagerly: the design deploys at the first statement, so a bad
		// column or method would otherwise surface only there, and an override
		// on a column the table lacks not at all.
		if !compress.HasCodec(d.Method) {
			return nil, fmt.Errorf("exec: method %s has no materializing codec", d.Method)
		}
		for c, m := range d.ColMethods {
			if !compress.HasCodec(m) {
				return nil, fmt.Errorf("exec: index %s: column %q has method %s, which has no materializing codec", d, c, m)
			}
			if !schema.Has(c) && !strings.EqualFold(c, "__rid") {
				return nil, fmt.Errorf("exec: index %s: design names unknown column %q", d, c)
			}
		}
		for _, c := range d.Columns() {
			if !schema.Has(c) {
				return nil, fmt.Errorf("exec: index %s references unknown column %q", d, c)
			}
		}
		for i, c := range d.KeyCols {
			if containsFoldStr(d.KeyCols[:i], c) {
				return nil, fmt.Errorf("exec: index %s repeats key column %q", d, c)
			}
		}
		key := strings.ToLower(d.Table)
		switch {
		case d.IsMV():
			st.tables[key] = append(st.tables[key], h)
			st.views = append(st.views, h)
			st.all = append(st.all, h)
		case d.Clustered:
			if base[key] != nil {
				return nil, fmt.Errorf("exec: two clustered indexes on %s", d.Table)
			}
			base[key] = h
			// The clustered index is materialized as a key-ordered structure
			// carrying every column, so every read of it is covering, and the
			// RID, so lookups find base rows in it.
			h.def = &index.Def{Table: t.Name, KeyCols: d.KeyCols, Method: d.Method, ColMethods: d.ColMethods}
			for _, c := range t.Schema.Names() {
				if !containsFoldStr(d.KeyCols, c) {
					h.def.IncludeCols = append(h.def.IncludeCols, c)
				}
			}
		default:
			secs[key] = append(secs[key], h)
		}
		st.design = append(st.design, h)
	}
	byID := func(a, b *segHandle) int { return strings.Compare(a.id, b.id) }
	for _, t := range db.Tables() {
		key := strings.ToLower(t.Name)
		b := base[key]
		if b == nil {
			b = &segHandle{def: &index.Def{Table: t.Name, Clustered: true}, id: "heap:" + key}
		}
		slices.SortFunc(secs[key], byID)
		st.tables[key] = append([]*segHandle{b}, secs[key]...)
		st.all = append(st.all, st.tables[key]...)
	}
	slices.SortStableFunc(st.all, byID)
	return st, nil
}

func containsFoldStr(list []string, s string) bool {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

// deploy builds the whole design on the store's first statement — every
// structure of every table, needed by that statement or not — and sets up
// the planner over what it built. The statistics are the catalog's as they
// stand (tuning has built them), snapshotted so that no later write makes a
// plan rebuild them; each ordered structure enters the configuration at its
// built sizes, in design order.
func (st *Store) deploy() error {
	if st.cm != nil {
		return nil
	}
	if err := st.ensureBuilt(st.all...); err != nil {
		return err
	}
	hypos := make([]*optimizer.HypoIndex, len(st.design))
	for i, h := range st.design {
		h.hypo = optimizer.NewHypoIndex(h.hypo.Def, h.si.Physical.Rows, h.si.MaterializedBytes(), h.si.Physical.UncompressedBytes)
		hypos[i] = h.hypo
	}
	st.cm = optimizer.NewCostModel(st.db.Snapshot())
	st.cfg = optimizer.NewConfiguration(hypos...)
	st.plans = make(map[any]*optimizer.Plan)
	return nil
}

// planFor returns the statement's plan over the deployed design, deploying
// it on the store's first statement. Plans are memoized by the statement's
// Query, Update or Delete pointer, so a statement must not be edited in
// place between runs.
func (st *Store) planFor(s workload.Statement) (*optimizer.Plan, error) {
	if err := st.deploy(); err != nil {
		return nil, err
	}
	var key any = s.Query
	switch {
	case s.Update != nil:
		key = s.Update
	case s.Delete != nil:
		key = s.Delete
	}
	p := st.plans[key]
	if p == nil {
		p = st.cm.Plan(&s, st.cfg)
		st.plans[key] = p
	}
	return p, nil
}

// ensureBuilt builds the handles whose segment is missing or stale, in one
// index.BuildSegments fan-out. What must not depend on completion order —
// retiring stale backings, spill file names — is fixed serially first, in
// handle order.
func (st *Store) ensureBuilt(hs ...*segHandle) error {
	var todo []*segHandle
	var defs []*index.Def
	for _, h := range hs {
		if h.si == nil || h.stale {
			todo, defs = append(todo, h), append(defs, h.def)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	paths := make([]string, len(todo))
	for i, h := range todo {
		if h.si != nil {
			// Rebuilding over a stale disk-backed segment: drop its frames and
			// file before the replacement spills.
			h.si.Seg.CloseBacking()
		}
		if st.pool != nil && st.diskDir != "" {
			paths[i] = filepath.Join(st.diskDir, fmt.Sprintf("seg%06d.cadb", st.spillSeq))
			st.spillSeq++
		}
	}
	built, err := index.BuildSegments(st.db, defs, func(i int, si *index.SegmentIndex) error {
		if paths[i] == "" {
			return nil
		}
		return si.Seg.Spill(paths[i], st.pool)
	})
	for i, h := range todo {
		if built[i] != nil {
			h.si, h.stale = built[i], false
		}
	}
	return err
}

// Invalidate marks every segment over the table stale, as a DELETE must:
// removing rows shifts every later RID, so no structure's positions hold,
// and every view built from the table's rows may have lost some.
func (st *Store) Invalidate(table string) {
	for _, h := range st.tables[strings.ToLower(table)] {
		st.invalidate(h)
	}
	st.invalidateViews(table)
}

// invalidateViews marks stale every view whose build reads the table, as
// any write to its rows must: a changed row may change the view's groups.
func (st *Store) invalidateViews(table string) {
	key := strings.ToLower(table)
	for _, h := range st.views {
		if slices.Contains(h.reads, key) {
			st.invalidate(h)
		}
	}
}

// invalidate marks one structure stale, overlay and all; the next statement
// that reads it rebuilds it from the catalog rows. Only a DELETE and an
// UPDATE that moves rows (or folds an overlay) come here. A disk-backed
// segment is closed at once: its pool frames drop and its spill file is
// removed, so a cursor still holding the old segment errors instead of
// reading pre-write pages back out of the pool.
func (st *Store) invalidate(h *segHandle) {
	h.stale = true
	if h.si != nil {
		h.si.Seg.CloseBacking()
	}
}

// ---------------------------------------------------------------------------
// Per-statement run state: I/O counters and access-path descriptions

type runState struct {
	io    IOStats
	paths []string

	// Readahead knobs copied from the store at statement start (0 = off).
	pfWindow, pfWorkers int
}

func (st *Store) newRunState() *runState {
	return &runState{pfWindow: st.prefetchWindow, pfWorkers: st.prefetchWorkers}
}

// ---------------------------------------------------------------------------
// Access paths

// pathOn returns the plan's access path for the table — for a write, the
// lookup of its rows — or nil when the plan has none.
func pathOn(plan *optimizer.Plan, table string) *optimizer.AccessPath {
	for i := range plan.Paths {
		if strings.EqualFold(plan.Paths[i].Table, table) {
			return &plan.Paths[i]
		}
	}
	return nil
}

// route is a table's plan path resolved against the store: the segment it
// reads — the heap, or an ordered structure — and the page range [lo, hi) it
// visits there: all of it for a scan, the composite-key range for a seek.
// lookup, set when the structure lacks a needed column, is the table's base
// structure, where the path fetches its rows by RID.
type route struct {
	ap     *optimizer.AccessPath
	h      *segHandle
	lo, hi int
	lookup *segHandle
}

// route resolves the table's plan path, building what it reads that is
// stale.
func (st *Store) route(plan *optimizer.Plan, table string, needed []string) (route, error) {
	hs := st.tables[strings.ToLower(table)]
	r := route{ap: pathOn(plan, table)}
	if hs == nil || r.ap == nil {
		return r, fmt.Errorf("exec: unknown table %q", table)
	}
	base := hs[0]
	for _, h := range hs {
		if h.hypo == r.ap.Index { // a heap-scan path has no Index, a heap no hypo
			r.h = h
			break
		}
	}
	switch {
	case r.h == nil && r.ap.Index == nil:
		return r, fmt.Errorf("exec: the plan scans a heap of %s, which is stored as %s", table, base.id)
	case r.h == nil:
		return r, fmt.Errorf("exec: the plan reads %s, which the store did not build", r.ap.Index.Def)
	}
	need := []*segHandle{r.h}
	if r.h.hypo != nil && !covers(r.h.def, needed) {
		r.lookup = base
		need = append(need, base)
	}
	if err := st.ensureBuilt(need...); err != nil {
		return r, err
	}
	r.lo, r.hi = 0, r.h.si.Seg.NumPages()
	if r.ap.Seek != nil {
		r.lo, r.hi = r.h.si.SeekPrefix(seekOf(r.ap.Seek))
	}
	return r, nil
}

// seekOf is the composite seek of a plan's seek predicates: one equality per
// leading key column, then at most one range.
func seekOf(preds []workload.Predicate) index.Seek {
	var s index.Seek
	for _, p := range preds {
		switch p.Op {
		case workload.OpEq:
			s.Eq = append(s.Eq, p.Lo)
		case workload.OpGt, workload.OpGe:
			s.Lo, s.HasLo = p.Lo, true
		case workload.OpLt, workload.OpLe:
			s.Hi, s.HasHi = p.Lo, true
		case workload.OpBetween:
			s.Lo, s.HasLo, s.Hi, s.HasHi = p.Lo, true, p.Hi, true
		}
	}
	return s
}

// covers reports whether the structure's leaf carries every needed column.
func covers(d *index.Def, needed []string) bool {
	cols := d.Columns()
	for _, c := range needed {
		if !containsFoldStr(cols, c) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Statement execution

// RunQuery executes the query against the page store, reporting the rows
// (byte-identical to Run's) and the physical I/O performed.
func (st *Store) RunQuery(q *workload.Query) (*Result, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("exec: query has no tables")
	}
	rs := st.newRunState()
	var res *Result
	var err error
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		res, err = st.runAggregate(rs, q)
	} else {
		res, err = st.runProjection(rs, q)
	}
	if err != nil {
		return nil, err
	}
	res.IO = rs.io
	res.Paths = rs.paths
	return res, nil
}

// hasCol reports whether the catalog's table has the column: how a
// statement's predicates are attributed to its tables.
func (st *Store) hasCol(table, col string) bool {
	t := st.db.Table(table)
	return t != nil && t.Schema.Has(col)
}

// fetch serves dimension tables to the join machinery along their plan
// paths, decoding only the asked-for columns. The dimension's predicates are
// pushed into its stream as into the driving table's, and the post-join
// filter applies them again. The joiner keeps the rows for the statement's
// life, so they are copied out of the cursor's batches into one slab.
//
// A structure delivers a dimension in key order, less the rows its seek and
// pushed predicates skip, where the oracle joins the whole table in heap
// order. On a unique join key — every built-in join is on its dimension's
// primary key — that changes nothing; on a duplicated one the joiner's
// last-row-wins pick can differ from the oracle's.
func (st *Store) fetch(rs *runState, plan *optimizer.Plan, q *workload.Query) index.TableFetch {
	return func(table string, cols []string) (*storage.Schema, []storage.Row, error) {
		src, err := st.open(rs, plan, table, q.PredsOn(table, st.hasCol), cols)
		if err != nil {
			return nil, nil, err
		}
		w := len(src.schema.Columns)
		slab := make([]storage.Value, 0, int(src.cur.MaxRows())*w)
		err = src.forEach(func(r storage.Row) error {
			slab = append(slab, r...)
			return nil
		})
		rows := make([]storage.Row, len(slab)/max(w, 1))
		for i := range rows {
			rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
		}
		return src.schema, rows, err
	}
}

// pipeline is the read path every query shares: the driving-table stream
// pulled through join → filter, each surviving wide row handed to a sink.
//
// Names resolve first, against the joiner's full wide schema — every column
// of every joined table — so the store accepts and rejects exactly the
// references the oracle does. What resolution marks as used is then all that
// is read: the driving stream decodes only its used columns, each dimension
// only its key and used columns, each along the statement's plan path.
// consume resolves the consumer's own references (marking them used) and
// returns its sink; the wide row a sink receives is borrowed, valid until
// the sink returns.
func (st *Store) pipeline(rs *runState, q *workload.Query, consume func(wide *storage.Schema, used []bool) (func(storage.Row), error)) error {
	fact := q.Tables[0]
	jn, err := index.NewJoiner(st.db, fact, q.Joins)
	if err != nil {
		return err
	}
	flt, err := index.NewRowFilter(jn.Schema(), q.Preds)
	if err != nil {
		return err
	}
	used := jn.JoinCols()
	flt.MarkCols(used)
	sink, err := consume(jn.Schema(), used)
	if err != nil {
		return err
	}
	plan, err := st.planFor(workload.Statement{Query: q})
	if err != nil {
		return err
	}
	src, err := st.open(rs, plan, fact, q.PredsOn(fact, st.hasCol), jn.FactCols(used))
	if err != nil {
		return err
	}
	// The stream's readahead workers started when it opened: release them on
	// every way out, not only at exhaustion.
	defer src.close()
	if err := jn.Bind(src.schema, used, st.fetch(rs, plan, q)); err != nil {
		return err
	}
	return src.forEach(func(r storage.Row) error {
		wide, ok := jn.Widen(r)
		if ok && flt.Keep(wide) {
			sink(wide)
		}
		if ok && poison != nil {
			poison(wide)
		}
		return nil
	})
}

// runAggregate accumulates the pipeline's rows into groups, or reads them
// off the materialized view the plan answers the query from. GroupAcc's
// result does not depend on row order, so the rows come in whatever order
// the access path delivers them.
func (st *Store) runAggregate(rs *runState, q *workload.Query) (*Result, error) {
	plan, err := st.planFor(workload.Statement{Query: q})
	if err != nil {
		return nil, err
	}
	if len(plan.Paths) == 1 && plan.Paths[0].Index != nil && plan.Paths[0].Index.Def.IsMV() {
		return st.runFromView(rs, plan, q)
	}
	var acc *index.GroupAcc
	err = st.pipeline(rs, q, func(wide *storage.Schema, used []bool) (func(storage.Row), error) {
		var err error
		if acc, err = index.NewGroupAcc(wide, q.GroupBy, q.Aggs); err != nil {
			return nil, err
		}
		acc.MarkCols(used)
		return acc.Add, nil
	})
	if err != nil {
		return nil, err
	}
	schema, rows := acc.Finish()
	return finishAggregate(schema, rows, q)
}

// runFromView answers a grouped query from the view its plan reads, by the
// rule the plan was costed by (optimizer.MatchMV): the view's rows over the
// plan's page range, each mapped onto the query's own grouped layout
// (index.GroupAcc.Schema) and kept when its group passes the residual
// predicates, then the shaping tail the pipeline's groups take. The view's
// groups are the query's, so every value is one the query's own grouping
// computes; an AVG read as SUM over __count divides as GroupAcc does.
//
// The query's names resolve first against its own wide schema, so the view
// path accepts and rejects exactly the references the oracle does.
func (st *Store) runFromView(rs *runState, plan *optimizer.Plan, q *workload.Query) (*Result, error) {
	ap := &plan.Paths[0]
	var h *segHandle
	for _, v := range st.views {
		if v.hypo == ap.Index {
			h = v
		}
	}
	if h == nil {
		return nil, fmt.Errorf("exec: the plan reads %s, which the store did not build", ap.Index.Def)
	}
	ans, ok := optimizer.MatchMV(st.cm.DB, h.def.MV, q)
	if !ok {
		return nil, fmt.Errorf("exec: the plan answers the query from %s, which cannot answer it", h.id)
	}
	jn, err := index.NewJoiner(st.db, q.Tables[0], q.Joins)
	if err != nil {
		return nil, err
	}
	if _, err := index.NewRowFilter(jn.Schema(), q.Preds); err != nil {
		return nil, err
	}
	acc, err := index.NewGroupAcc(jn.Schema(), q.GroupBy, q.Aggs)
	if err != nil {
		return nil, err
	}
	out := acc.Schema()
	ng := len(q.GroupBy)
	flt, err := index.NewRowFilter(storage.NewSchema(out.Columns[:ng]...), ans.Residual)
	if err != nil {
		return nil, err
	}

	// src[i] is the view column output column i reads.
	view := h.view.Columns
	count := view[len(view)-1].Name
	src := make([]string, len(out.Columns))
	for i, g := range ans.Groups {
		src[i] = view[g].Name
	}
	for i, a := range ans.Aggs {
		src[ng+i] = count
		if a.Src >= 0 {
			src[ng+i] = view[len(h.def.MV.GroupBy)+a.Src].Name
		}
	}
	src[len(src)-1] = count
	stream, err := st.open(rs, plan, ap.Table, nil, src)
	if err != nil {
		return nil, err
	}
	defer stream.close()
	at := make([]int, len(src))
	for i, c := range src {
		at[i] = stream.schema.ColIndex(c)
	}
	countAt := at[len(at)-1]

	row, all := make(storage.Row, len(out.Columns)), make([]int, len(out.Columns))
	for i := range all {
		all[i] = i
	}
	slab := newRowSlab(len(all))
	var rows []storage.Row
	err = stream.forEach(func(r storage.Row) error {
		for i, c := range at {
			row[i] = r[c]
		}
		for i, a := range ans.Aggs {
			if sum := row[ng+i]; a.Avg && !sum.Null {
				row[ng+i] = storage.FloatVal(sum.Float / float64(r[countAt].Int))
			}
		}
		if flt.Keep(row) {
			rows = append(rows, slab.keep(row, all))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return finishAggregate(out, rows, q)
}

// runProjection collects the pipeline's rows, projected onto the select list
// as they pass, in whatever order the access path delivers them: the shared
// shaping tail sorts them by a total order.
func (st *Store) runProjection(rs *runState, q *workload.Query) (*Result, error) {
	var schema *storage.Schema
	var rows []storage.Row
	err := st.pipeline(rs, q, func(wide *storage.Schema, used []bool) (func(storage.Row), error) {
		keep, err := selectList(st.db, q.Tables[0], wide, q)
		if err != nil {
			return nil, err
		}
		schema = wide.Project(keep)
		idx := make([]int, len(keep))
		for i, name := range keep {
			idx[i] = wide.ColIndex(name)
			used[idx[i]] = true
		}
		slab := newRowSlab(len(idx))
		return func(r storage.Row) { rows = append(rows, slab.keep(r, idx)) }, nil
	})
	if err != nil {
		return nil, err
	}
	return applyOrder(&Result{Schema: schema, Rows: rows}, q)
}

// locate reads a write's qualifying rows along its plan's lookup path, for
// the I/O a real engine would pay to find them. It decodes what the rewrite
// needs — the predicate columns and an UPDATE's SET columns — which are the
// columns the plan was costed to read.
func (st *Store) locate(rs *runState, s workload.Statement) error {
	table, _ := s.WriteTable()
	var cols []string
	if s.Update != nil {
		cols = s.Update.SetCols()
	}
	preds := s.WritePreds()
	for _, p := range preds {
		if st.hasCol(table, p.Col) && !containsFoldStr(cols, p.Col) {
			cols = append(cols, p.Col)
		}
	}
	plan, err := st.planFor(s)
	if err != nil {
		return err
	}
	src, err := st.open(rs, plan, table, preds, cols)
	if err != nil {
		return err
	}
	return src.forEach(func(storage.Row) error { return nil })
}

// RunUpdate applies a predicated UPDATE through the page store: qualifying
// rows are located along the statement's plan (counting the reads), then
// rewritten in the catalog by the same loop as the plain RunUpdate, whose
// count it returns. That loop binds the WHERE as a query's is bound
// (index.NewRowFilter) before it rewrites anything, so an unknown column
// fails the statement with no row and no structure changed. An in-place
// update moves no RID, so what becomes of each built structure over the
// table depends on where the SET columns sit in it:
//   - it stores none of them: it is still valid and is left alone;
//   - one is a key column: the rewritten rows change position, so it is
//     invalidated and the next statement that reads it rebuilds it;
//   - otherwise (always for a heap) the rewritten rows keep their
//     positions, and each one's new leaf row goes into the structure's
//     in-memory overlay (index.SegmentIndex.Overlay), which cursors merge as
//     they decode. The pages, and a disk-backed structure's spill file and
//     pool frames, stay as they are. An overlay that comes to hold more than
//     foldShare of its structure's rows is folded: the structure is
//     invalidated, and the rebuild encodes the rows afresh.
//
// A materialized view whose build reads the table — its fact table or a
// joined one — is invalidated, whatever columns the update sets, and rebuilt
// by the next statement that reads it. (The cost model charges maintenance
// only for fact-table updates; the store never serves a stale view.)
func (st *Store) RunUpdate(u *workload.Update) (int64, IOStats, error) {
	rs := st.newRunState()
	if err := st.locate(rs, workload.Statement{Update: u}); err != nil {
		return 0, rs.io, err
	}
	rids, err := updateRows(st.db, u)
	if err != nil || len(rids) == 0 {
		return 0, rs.io, err
	}
	t := st.db.Table(u.Table)
	for _, h := range st.tables[strings.ToLower(u.Table)] {
		d := h.def
		switch {
		case h.si == nil || h.stale:
			// Not built: the next read builds it from the rewritten rows.
		case h.hypo != nil && !slices.ContainsFunc(d.Columns(), u.Touches):
			// Stores no SET column.
		case slices.ContainsFunc(d.KeyCols, u.Touches):
			st.invalidate(h)
		default:
			if err := h.si.Overlay(t.Schema, t.Rows, rids); err != nil {
				return 0, rs.io, err
			}
			if float64(h.si.OverlaidRows()) > foldShare*float64(h.si.Seg.Rows()) {
				st.invalidate(h)
			}
		}
	}
	st.invalidateViews(u.Table)
	return int64(len(rids)), rs.io, nil
}

// foldShare is the share of a structure's rows its overlay may hold before
// an UPDATE folds it into a rebuild. It bounds what an overlay keeps in
// memory, and what a cursor merges, to half its structure.
const foldShare = 0.5

// RunDelete applies a predicated DELETE through the page store; see
// RunUpdate. Deleting rows shifts every later RID, so every segment over the
// table is invalidated.
func (st *Store) RunDelete(d *workload.Delete) (int64, IOStats, error) {
	rs := st.newRunState()
	if err := st.locate(rs, workload.Statement{Delete: d}); err != nil {
		return 0, rs.io, err
	}
	n, err := RunDelete(st.db, d)
	if err != nil {
		return 0, rs.io, err
	}
	if n > 0 {
		st.Invalidate(d.Table)
	}
	return n, rs.io, nil
}
