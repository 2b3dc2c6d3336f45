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
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// IOStats counts the physical work of a segment-backed execution. It is an
// alias of storage.IOStats so codecs, cursors and the executor share one
// accounting currency (see that type for the field semantics).
type IOStats = storage.IOStats

// Store is the physical half of the database: every table materialized as a
// page-backed heap segment (insertion order, compressed with the clustered
// index's method when the design has one), plus key-ordered segments for the
// clustered index and every non-partial secondary. The first statement
// deploys the whole design — every structure of every table — in one planned
// build; after a write, a statement rebuilds the stale structures it needs.
// Queries run as an operator pipeline over streaming cursors — pages decode
// lazily, only the columns the statement can observe are reconstructed, and
// sargable predicates are evaluated inside the codec — and report their I/O;
// UPDATE and DELETE locate their rows through the same cursors. Results are
// byte-identical to the plain-row oracle (Run) because order-sensitive
// consumers get insertion order restored before the join/aggregate pipeline
// and the rest canonicalize their output.
type Store struct {
	db       *catalog.Database
	heaps    map[string]*segHandle   // lowercased table -> heap segment
	secs     map[string][]*segHandle // lowercased table -> ordered structures
	all      []*segHandle            // every handle in ID order, as deployed and spilled
	deployed bool

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
// sweep reuse one set of segment files.
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

// segHandle is one segment of the design, built at deploy and after writes.
type segHandle struct {
	def   *index.Def // the materialization def (synthetic for heaps)
	id    string     // stable identity for deterministic candidate order
	kind  string     // "heap", "clustered", "secondary"
	si    *index.SegmentIndex
	stale bool
}

// NewStore materializes the physical design over the database. Partial and
// MV index definitions are accepted but not used as access paths (partial
// RID spaces and MV matching stay the optimizer's business); clustered
// definitions choose the heap's compression method and become seekable
// key-ordered structures.
func NewStore(db *catalog.Database, defs []*index.Def) (*Store, error) {
	st := &Store{
		db:    db,
		heaps: make(map[string]*segHandle),
		secs:  make(map[string][]*segHandle),
	}
	clustered := make(map[string]*index.Def)
	for _, d := range defs {
		if d.IsMV() || d.IsPartial() {
			continue
		}
		t := db.Table(d.Table)
		if t == nil {
			return nil, fmt.Errorf("exec: index %s on unknown table %q", d, d.Table)
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
			if !t.Schema.Has(c) && !strings.EqualFold(c, "__rid") {
				return nil, fmt.Errorf("exec: index %s: design names unknown column %q", d, c)
			}
		}
		for _, c := range d.Columns() {
			if !t.Schema.Has(c) {
				return nil, fmt.Errorf("exec: index %s references unknown column %q", d, c)
			}
		}
		for i, c := range d.KeyCols {
			if containsFoldStr(d.KeyCols[:i], c) {
				return nil, fmt.Errorf("exec: index %s repeats key column %q", d, c)
			}
		}
		key := strings.ToLower(d.Table)
		if d.Clustered {
			if _, dup := clustered[key]; dup {
				return nil, fmt.Errorf("exec: two clustered indexes on %s", d.Table)
			}
			clustered[key] = d
			continue
		}
		st.secs[key] = append(st.secs[key], &segHandle{def: d, id: d.ID(), kind: "secondary"})
	}
	for _, t := range db.Tables() {
		key := strings.ToLower(t.Name)
		heapDef := &index.Def{Table: t.Name, Clustered: true}
		if cl := clustered[key]; cl != nil {
			heapDef.Method = cl.Method
			heapDef.ColMethods = cl.ColMethods
			// The clustered index is materialized as a key-ordered structure
			// carrying every column plus a RID, so seeks can restore
			// insertion order.
			synth := &index.Def{
				Table:      t.Name,
				KeyCols:    cl.KeyCols,
				Method:     cl.Method,
				ColMethods: cl.ColMethods,
			}
			for _, c := range t.Schema.Names() {
				if !containsFoldStr(synth.KeyCols, c) {
					synth.IncludeCols = append(synth.IncludeCols, c)
				}
			}
			st.secs[key] = append(st.secs[key], &segHandle{def: synth, id: cl.ID(), kind: "clustered"})
		}
		st.heaps[key] = &segHandle{def: heapDef, id: "heap:" + key, kind: "heap"}
	}
	byID := func(a, b *segHandle) int { return strings.Compare(a.id, b.id) }
	for _, t := range db.Tables() {
		key := strings.ToLower(t.Name)
		slices.SortFunc(st.secs[key], byID)
		st.all = append(append(st.all, st.heaps[key]), st.secs[key]...)
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

// ensureBuilt builds the handles whose segment is missing or stale; the first
// call deploys the whole design instead, needed by this statement or not.
// Both are one index.BuildSegments fan-out. What must not depend on
// completion order — retiring stale backings, spill file names — is fixed
// serially first, in handle order.
func (st *Store) ensureBuilt(hs []*segHandle) error {
	if !st.deployed {
		hs, st.deployed = st.all, true
	}
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

// Invalidate marks every segment over the table stale; the next access
// rebuilds from the catalog rows. Disk-backed segments are closed immediately
// — their pool frames drop and their spill files are removed, so a cursor
// still holding the old segment errors instead of reading pre-write pages
// back out of the pool.
func (st *Store) Invalidate(table string) {
	st.invalidate(table, func(*index.Def) bool { return true })
}

// invalidate marks stale the table's heap and those of its ordered
// structures whose definition the write affects.
func (st *Store) invalidate(table string, affects func(*index.Def) bool) {
	mark := func(h *segHandle) {
		h.stale = true
		if h.si != nil {
			h.si.Seg.CloseBacking()
		}
	}
	key := strings.ToLower(table)
	if h := st.heaps[key]; h != nil {
		mark(h)
	}
	for _, h := range st.secs[key] {
		if affects(h.def) {
			mark(h)
		}
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

// candidate is a scored seekable structure: the conservative page range its
// leading key admits for the statement's predicates, and whether its leaf
// carries every needed column.
type candidate struct {
	h        *segHandle
	si       *index.SegmentIndex
	lo, hi   int
	score    int64
	covering bool
}

// planAccess picks the cheapest seekable structure for a statement, or nil
// when no sargable predicate beats a full heap scan's page count.
func (st *Store) planAccess(table string, preds []workload.Predicate, needed []string) (*index.SegmentIndex, *candidate, error) {
	key := strings.ToLower(table)
	heapH := st.heaps[key]
	if heapH == nil {
		return nil, nil, fmt.Errorf("exec: unknown table %q", table)
	}
	// Everything the statement can touch — the heap plus every structure a
	// sargable predicate can seek — must be current; stale ones rebuild here.
	need := []*segHandle{heapH}
	for _, h := range st.secs[key] {
		if _, hasLo, _, hasHi := leadingBounds(preds, h); hasLo || hasHi {
			need = append(need, h)
		}
	}
	if err := st.ensureBuilt(need); err != nil {
		return nil, nil, err
	}
	heap := heapH.si
	var best *candidate
	for _, h := range st.secs[key] {
		loV, hasLo, hiV, hasHi := leadingBounds(preds, h)
		if !hasLo && !hasHi {
			continue
		}
		si := h.si
		lo, hi := si.SeekPages(loV, hasLo, hiV, hasHi)
		var rangePages int64
		for i := lo; i < hi; i++ {
			rangePages += si.Seg.Page(i).PhysicalPages()
		}
		c := candidate{h: h, si: si, lo: lo, hi: hi, score: rangePages}
		c.covering = h.kind == "clustered" || coversAll(si, needed)
		if best == nil || c.score < best.score ||
			(c.score == best.score && (c.covering && !best.covering ||
				c.covering == best.covering && c.h.id < best.h.id)) {
			cc := c
			best = &cc
		}
	}
	if best != nil && best.score >= heap.Seg.PhysicalPages() {
		best = nil
	}
	return heap, best, nil
}

// distinctHeapPages counts the heap pages a sorted RID batch touches.
func distinctHeapPages(heap *index.SegmentIndex, rids []int64) int64 {
	var n int64
	last := -1
	at := int64(0)
	page := 0
	for _, rid := range rids {
		for page < heap.Seg.NumPages() && at+int64(heap.Seg.PageRows(page)) <= rid {
			at += int64(heap.Seg.PageRows(page))
			page++
		}
		if page != last {
			n++
			last = page
		}
	}
	return n
}

// leadingBounds is seekBounds on the structure's leading key column; a
// structure without key columns is never seekable.
func leadingBounds(preds []workload.Predicate, h *segHandle) (lo storage.Value, hasLo bool, hi storage.Value, hasHi bool) {
	if len(h.def.KeyCols) == 0 {
		return lo, false, hi, false
	}
	return seekBounds(preds, h.def.KeyCols[0])
}

// seekBounds derives a conservative leading-key interval from the sargable
// predicates on keyCol: the first equality pins both ends; otherwise the
// first lower and upper range bounds are used. The page range only has to
// contain every qualifying row — the pipeline re-applies the predicates.
func seekBounds(preds []workload.Predicate, keyCol string) (lo storage.Value, hasLo bool, hi storage.Value, hasHi bool) {
	for _, p := range preds {
		if !strings.EqualFold(p.Col, keyCol) || !p.Sargable() {
			continue
		}
		switch p.Op {
		case workload.OpEq:
			return p.Lo, true, p.Lo, true
		case workload.OpGt, workload.OpGe:
			if !hasLo {
				lo, hasLo = p.Lo, true
			}
		case workload.OpLt, workload.OpLe:
			if !hasHi {
				hi, hasHi = p.Lo, true
			}
		case workload.OpBetween:
			if !hasLo {
				lo, hasLo = p.Lo, true
			}
			if !hasHi {
				hi, hasHi = p.Hi, true
			}
		}
	}
	return lo, hasLo, hi, hasHi
}

// coversAll reports whether the structure's leaf carries every needed
// column.
func coversAll(si *index.SegmentIndex, needed []string) bool {
	for _, c := range needed {
		if !si.Schema().Has(c) {
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

// fetch serves dimension tables to the join machinery: a counted full scan
// of the heap segment that decodes only the asked-for columns. The joiner
// keeps the rows for the statement's life, so they are copied out of the
// cursor's batches into one slab.
func (st *Store) fetch(rs *runState) index.TableFetch {
	return func(table string, cols []string) (*storage.Schema, []storage.Row, error) {
		h := st.heaps[strings.ToLower(table)]
		if h == nil {
			return nil, nil, fmt.Errorf("exec: unknown table %q", table)
		}
		if err := st.ensureBuilt([]*segHandle{h}); err != nil {
			return nil, nil, err
		}
		src := st.heapScanStream(rs, table, h.si, nil, cols)
		w := len(src.schema.Columns)
		slab := make([]storage.Value, 0, int(h.si.Seg.Rows())*w)
		err := src.forEach(func(r storage.Row) error {
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
// only its key and used columns. plan resolves the consumer's own references
// (marking them used) and returns its sink; the wide row a sink receives is
// borrowed, valid until the sink returns.
func (st *Store) pipeline(rs *runState, q *workload.Query, ordered bool, plan func(wide *storage.Schema, used []bool) (func(storage.Row), error)) error {
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
	sink, err := plan(jn.Schema(), used)
	if err != nil {
		return err
	}
	has := func(tbl, col string) bool {
		t := st.db.Table(tbl)
		return t != nil && t.Schema.Has(col)
	}
	src, err := st.accessStream(rs, fact, q.PredsOn(fact, has), jn.FactCols(used), ordered)
	if err != nil {
		return err
	}
	// The stream's readahead workers started when it opened: release them on
	// every way out, not only at exhaustion.
	defer src.close()
	if err := jn.Bind(src.schema, used, st.fetch(rs)); err != nil {
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

// runAggregate accumulates the pipeline's rows into groups. Float sums make
// the accumulation order-sensitive, so the stream is opened ordered: every
// batch arrives in insertion (RID) order and the result stays byte-identical
// to the oracle's.
func (st *Store) runAggregate(rs *runState, q *workload.Query) (*Result, error) {
	var acc *index.GroupAcc
	err := st.pipeline(rs, q, true, func(wide *storage.Schema, used []bool) (func(storage.Row), error) {
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

// runProjection collects the pipeline's rows, projected onto the select list
// as they pass. Without an ORDER BY the shared shaping tail canonicalizes the
// output, so the stream may deliver in whatever order the access path
// produces (covering seeks skip order restoration entirely); with one,
// ordered delivery keeps tie-breaking identical to the oracle's.
func (st *Store) runProjection(rs *runState, q *workload.Query) (*Result, error) {
	var schema *storage.Schema
	var rows []storage.Row
	err := st.pipeline(rs, q, len(q.OrderBy) > 0, func(wide *storage.Schema, used []bool) (func(storage.Row), error) {
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
		slab := newRowSlab(len(idx), 0)
		return func(r storage.Row) { rows = append(rows, slab.keep(r, idx)) }, nil
	})
	if err != nil {
		return nil, err
	}
	return applyOrder(&Result{Schema: schema, Rows: rows}, q)
}

// locate reads a write's qualifying rows, whole, through the cheapest access
// path, for the I/O a real engine would pay to find them.
func (st *Store) locate(rs *runState, table string, preds []workload.Predicate) error {
	t := st.db.Table(table)
	if t == nil {
		return fmt.Errorf("exec: unknown table %q", table)
	}
	src, err := st.accessStream(rs, table, preds, t.Schema.Names(), false)
	if err != nil {
		return err
	}
	return src.forEach(func(storage.Row) error { return nil })
}

// RunUpdate applies a predicated UPDATE through the page store: qualifying
// rows are located via the cheapest access path (counting the reads), the
// catalog rows are rewritten in place, and the segments holding a rewritten
// column are invalidated: the heap, the clustered structure, and the
// secondaries whose leaf stores a SET column. An in-place update moves no
// RID, so an index storing none of the SET columns stays valid — the
// maintenance rule the cost model charges. The returned count is identical
// to the plain RunUpdate's.
func (st *Store) RunUpdate(u *workload.Update) (int64, IOStats, error) {
	rs := st.newRunState()
	// Locate through the access layer so the lookup I/O is accounted; the
	// mutation itself is delegated to the oracle-path implementation, which
	// is the semantics being validated.
	if err := st.locate(rs, u.Table, u.Preds); err != nil {
		return 0, rs.io, err
	}
	n, err := RunUpdate(st.db, u)
	if err != nil {
		return 0, rs.io, err
	}
	if n > 0 {
		st.invalidate(u.Table, func(d *index.Def) bool {
			return slices.ContainsFunc(d.Columns(), u.Touches)
		})
	}
	return n, rs.io, nil
}

// RunDelete applies a predicated DELETE through the page store; see
// RunUpdate. Deleting rows shifts every later RID, so every segment over the
// table is invalidated.
func (st *Store) RunDelete(d *workload.Delete) (int64, IOStats, error) {
	rs := st.newRunState()
	if err := st.locate(rs, d.Table, d.Preds); err != nil {
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
