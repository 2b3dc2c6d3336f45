package exec

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/par"
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
// clustered index and every non-partial secondary. Queries run as an
// operator pipeline over streaming cursors — pages decode lazily, only the
// columns the statement can observe are reconstructed, and sargable
// predicates are evaluated inside the codec — and report their I/O. Results
// are byte-identical to the plain-row oracle (Run) because order-sensitive
// consumers get insertion order restored before the join/aggregate pipeline
// and the rest canonicalize their output.
type Store struct {
	db    *catalog.Database
	heaps map[string]*segHandle   // lowercased table -> heap segment
	secs  map[string][]*segHandle // lowercased table -> ordered structures
	eager bool

	// Disk-backed mode (SetDiskBacked): segments spill their pages to files
	// under diskDir and every page access goes through the pool.
	diskDir  string
	pool     *bufferpool.Pool
	spillSeq int

	// Cold-scan accelerators, both off by default so exact-counter tests and
	// single-stream baselines see unchanged behavior. prefetchWindow/Workers
	// enable async readahead on sequential cursors; scanParts partitions full
	// scans across goroutines (clamped so concurrent pins can't exhaust the
	// pool).
	prefetchWindow  int
	prefetchWorkers int
	scanParts       int
}

// SetPrefetch enables async readahead on sequential page access (scans,
// range seeks, RID lookups, and the eager path's range reads): cursors keep
// a window of upcoming pages loading on workers goroutines while the current
// page decodes. window <= 0 disables; workers <= 0 picks the default worker
// count. Prefetch is speculative — it changes PoolHits/PoolMisses splits and
// adds PoolPrefetched accounting but never changes results.
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

// SetScanParallelism partitions full heap scans across up to k goroutines
// over disjoint page ranges (k <= 1 disables). Batches still arrive in
// global page order, so results stay byte-identical to serial scans. The
// effective k is clamped per scan so that concurrent pins can never exceed
// the pool's capacity.
func (st *Store) SetScanParallelism(k int) {
	if k < 1 {
		k = 1
	}
	st.scanParts = k
}

// effectiveScanParts clamps the configured scan parallelism for one segment:
// each partition pins at most one page at a time, but pinned pages plus
// readahead must leave the pool admissible, so allow one partition per
// 4 pages of capacity (overflow runs can exceed one page payload).
func (st *Store) effectiveScanParts(seg *storage.Segment) int {
	k := st.scanParts
	if k <= 1 || !seg.Backed() || st.pool == nil {
		return 1
	}
	if max := int(st.pool.Capacity() / (4 * storage.PageSize)); k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}
	return k
}

// SetEagerDecode switches the store back to the pre-streaming access path:
// every visited page fully decoded, filtering and projection done on
// materialized rows. Kept as the differential baseline for the streaming
// path's results and decode budgets.
func (st *Store) SetEagerDecode(on bool) { st.eager = on }

// SetDiskBacked switches the store to the disk-backed path: every segment
// built from now on is spilled to a file under dir and its pages are served
// through the pool (pinned on fetch, loaded from disk on a miss, evicted
// under memory pressure). Call before the first statement so every segment
// takes the same path.
func (st *Store) SetDiskBacked(dir string, pool *bufferpool.Pool) {
	st.diskDir, st.pool = dir, pool
}

// SetPool swaps the buffer pool: already-spilled segments keep their on-disk
// files but start fetching through the new pool (their old frames are
// invalidated), and future spills use it too. This is what lets a pool-size
// sweep reuse one set of segment files.
func (st *Store) SetPool(pool *bufferpool.Pool) error {
	st.pool = pool
	for _, h := range st.allHandles() {
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

// MeasuredHitRates reports the pool's observed hit rate for every built
// disk-backed segment, keyed by the structure's stable id ("heap:<table>" for
// heaps, the index def ID for structures). Segments never fetched through the
// pool are omitted. This is the feedback signal for pool-aware costing: a
// structure whose hot set stays resident serves most fetches from memory, and
// the cost model can discount its page reads accordingly.
func (st *Store) MeasuredHitRates() map[string]float64 {
	if st.pool == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, h := range st.allHandles() {
		if h.si == nil || h.stale {
			continue
		}
		id, ok := h.si.Seg.BackingFileID()
		if !ok {
			continue
		}
		fs := st.pool.FileStatsFor(id)
		if fs.Hits+fs.Misses > 0 {
			out[h.id] = fs.HitRate()
		}
	}
	return out
}

// DiskBytes sums the on-disk payload bytes of every currently built segment —
// the store's total working set under the disk-backed path.
func (st *Store) DiskBytes() int64 {
	var n int64
	for _, h := range st.allHandles() {
		if h.si != nil && !h.stale {
			n += h.si.Seg.DiskBytes()
		}
	}
	return n
}

// Close releases every disk-backed segment: pool frames are invalidated and
// the spill files removed. The store is unusable afterwards.
func (st *Store) Close() {
	for _, h := range st.allHandles() {
		if h.si != nil {
			h.si.Seg.CloseBacking()
		}
	}
}

func (st *Store) allHandles() []*segHandle {
	out := make([]*segHandle, 0, len(st.heaps)+len(st.secs))
	for _, h := range st.heaps {
		out = append(out, h)
	}
	for _, hs := range st.secs {
		out = append(out, hs...)
	}
	return out
}

// segHandle lazily builds (and rebuilds after writes) one segment.
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
		if !compress.HasCodec(d.Method) {
			return nil, fmt.Errorf("exec: method %s has no materializing codec", d.Method)
		}
		t := db.Table(d.Table)
		if t == nil {
			return nil, fmt.Errorf("exec: index %s on unknown table %q", d, d.Table)
		}
		// Validate eagerly: segments build lazily, so a bad column would
		// otherwise surface only if the structure ever became seekable.
		for _, c := range d.Columns() {
			if !t.Schema.Has(c) {
				return nil, fmt.Errorf("exec: index %s references unknown column %q", d, c)
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
	for _, hs := range st.secs {
		sort.Slice(hs, func(i, j int) bool { return hs[i].id < hs[j].id })
	}
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

// segment returns the handle's segment index, building it on first use and
// after invalidation.
func (st *Store) segment(h *segHandle) (*index.SegmentIndex, error) {
	if err := st.ensureBuilt([]*segHandle{h}); err != nil {
		return nil, err
	}
	return h.si, nil
}

// ensureBuilt builds the handles whose segment is missing or stale. The
// builds are independent, so they fan out across the CPUs; everything that
// must not depend on completion order — retiring stale backings, spill file
// names — is fixed serially first, in handle order.
func (st *Store) ensureBuilt(hs []*segHandle) error {
	var todo []*segHandle
	for _, h := range hs {
		if h.si == nil || h.stale {
			todo = append(todo, h)
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
	built := make([]*index.SegmentIndex, len(todo))
	errs := make([]error, len(todo))
	par.For(runtime.GOMAXPROCS(0), len(todo), func(i int) {
		si, err := index.BuildSegmentIndex(st.db, todo[i].def)
		if err == nil && paths[i] != "" {
			err = si.Seg.Spill(paths[i], st.pool)
		}
		built[i], errs[i] = si, err
	})
	var first error
	for i, h := range todo {
		if errs[i] == nil {
			h.si, h.stale = built[i], false
		} else if first == nil {
			first = errs[i]
		}
	}
	return first
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
// Per-statement run state: the decode cache and I/O counters

type runState struct {
	io    IOStats
	cache map[pageKey][]storage.Row
	paths []string

	// Readahead knobs copied from the store at statement start (0 = off).
	pfWindow, pfWorkers int
}

type pageKey struct {
	seg  *storage.Segment
	page int
}

// readPage returns page i of the segment, decoding at most once per
// statement and counting every physical access.
func (rs *runState) readPage(seg *storage.Segment, i int) ([]storage.Row, error) {
	rs.io.PageReads += seg.Page(i).PhysicalPages()
	k := pageKey{seg, i}
	if rows, ok := rs.cache[k]; ok {
		return rows, nil
	}
	payload, release, err := seg.FetchPage(i, &rs.io)
	if err != nil {
		return nil, err
	}
	rows, err := seg.Codec.DecodePage(seg.Schema, payload, seg.PageRows(i))
	release()
	if err != nil {
		return nil, err
	}
	rs.io.PagesDecoded++
	rs.io.TuplesDecoded += int64(len(rows))
	rs.io.ColumnsDecoded += int64(len(seg.Schema.Columns))
	rs.cache[k] = rows
	return rows, nil
}

func (rs *runState) readRange(seg *storage.Segment, lo, hi int) ([]storage.Row, error) {
	// Sequential range read: the eager path's scan shape, so it readaheads
	// under the same knob as the streaming cursors (nil prefetcher when off
	// or in-memory).
	pf := storage.StartPrefetch(seg, lo, hi, rs.pfWindow, rs.pfWorkers)
	defer pf.Close(&rs.io)
	out := make([]storage.Row, 0, 64)
	for i := lo; i < hi; i++ {
		pf.Advance(i - lo)
		rows, err := rs.readPage(seg, i)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

func (st *Store) newRunState() *runState {
	return &runState{
		cache:     make(map[pageKey][]storage.Row),
		pfWindow:  st.prefetchWindow,
		pfWorkers: st.prefetchWorkers,
	}
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
// when no sargable predicate beats a full heap scan's page count. The plan
// logic is shared by the eager access path and the streaming cursors, so
// both take identical access paths for identical statements.
func (st *Store) planAccess(table string, preds []workload.Predicate, needed []string) (*index.SegmentIndex, *candidate, error) {
	key := strings.ToLower(table)
	heapH := st.heaps[key]
	if heapH == nil {
		return nil, nil, fmt.Errorf("exec: unknown table %q", table)
	}
	// Everything the statement can touch — the heap plus every structure a
	// sargable predicate can seek — builds in one fan-out.
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
			(c.score == best.score && (boolRank(c.covering) > boolRank(best.covering) ||
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

// access produces the driving-table rows for a statement eagerly: a
// leading-key seek over the cheapest seekable structure when a sargable
// predicate allows it, otherwise a full heap scan — every visited page fully
// decoded. Rows always come back in insertion (RID) order, projected onto
// the chosen structure's columns (the full table schema except for covering
// secondary serves), so downstream operators see exactly what the plain-row
// oracle sees. Streaming statements use accessStream instead; this path
// remains for writes and as the SetEagerDecode baseline.
func (st *Store) access(rs *runState, table string, preds []workload.Predicate, needed []string) (*storage.Schema, []storage.Row, error) {
	heap, best, err := st.planAccess(table, preds, needed)
	if err != nil {
		return nil, nil, err
	}
	heapPages := heap.Seg.PhysicalPages()
	scan := func() (*storage.Schema, []storage.Row, error) {
		// Full heap scan: pages decode in insertion order, full schema.
		rows, err := rs.readRange(heap.Seg, 0, heap.Seg.NumPages())
		if err != nil {
			return nil, nil, err
		}
		rs.paths = append(rs.paths, fmt.Sprintf("seg-scan %s (%d pages)", table, heap.Seg.NumPages()))
		return heap.Schema(), rows, nil
	}
	if best == nil {
		return scan()
	}

	entries, err := rs.readRange(best.si.Seg, best.lo, best.hi)
	if err != nil {
		return nil, nil, err
	}
	// Filter the entries by the predicates resolvable on the structure —
	// anything left over is re-applied by the pipeline.
	entries = filterOnSchema(best.si.Schema(), entries, preds)
	ridIdx := best.si.Schema().ColIndex("__rid")
	if ridIdx < 0 {
		return nil, nil, fmt.Errorf("exec: structure %s has no RID column", best.h.id)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i][ridIdx].Int < entries[j][ridIdx].Int })

	if best.covering {
		schema, rows := stripColumn(best.si.Schema(), entries, ridIdx)
		if best.h.kind == "clustered" {
			// The clustered structure carries every table column; restore the
			// catalog's column order so downstream name resolution and row
			// layout match the oracle exactly.
			t := st.db.MustTable(table)
			rows = projectRows(schema, rows, lowerNames(t.Schema))
			schema = t.Schema
		}
		rs.paths = append(rs.paths, fmt.Sprintf("seg-%s-seek %s via %s (%d of %d pages)",
			best.h.kind, table, best.h.id, best.hi-best.lo, best.si.Seg.NumPages()))
		return schema, rows, nil
	}

	// RID lookups into the heap, batched in insertion order. If the matched
	// entries would touch more heap pages than a scan, fall back to scanning
	// (the index pages already read stay counted — the descent was real
	// work).
	rids := make([]int64, len(entries))
	for i, e := range entries {
		rids[i] = e[ridIdx].Int
	}
	if best.score+distinctHeapPages(heap, rids) >= heapPages {
		return scan()
	}
	rows, err := st.ridLookup(rs, heap, rids)
	if err != nil {
		return nil, nil, err
	}
	rs.paths = append(rs.paths, fmt.Sprintf("seg-index-seek+lookup %s via %s (%d of %d pages, %d lookups)",
		table, best.h.id, best.hi-best.lo, best.si.Seg.NumPages(), len(rids)))
	return heap.Schema(), rows, nil
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

// ridLookup fetches heap rows by position. RIDs must be sorted; each heap
// page is read once per contiguous batch.
func (st *Store) ridLookup(rs *runState, heap *index.SegmentIndex, rids []int64) ([]storage.Row, error) {
	// Page start offsets from the per-page row counts.
	starts := make([]int64, heap.Seg.NumPages()+1)
	for i := 0; i < heap.Seg.NumPages(); i++ {
		starts[i+1] = starts[i] + int64(heap.Seg.PageRows(i))
	}
	out := make([]storage.Row, 0, len(rids))
	for _, rid := range rids {
		p := sort.Search(heap.Seg.NumPages(), func(i int) bool { return starts[i+1] > rid })
		if p >= heap.Seg.NumPages() {
			return nil, fmt.Errorf("exec: RID %d out of range", rid)
		}
		rows, err := rs.readPage(heap.Seg, p)
		if err != nil {
			return nil, err
		}
		out = append(out, rows[rid-starts[p]])
	}
	return out, nil
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

// filterOnSchema applies the predicates whose columns exist in the schema.
func filterOnSchema(s *storage.Schema, rows []storage.Row, preds []workload.Predicate) []storage.Row {
	var local []workload.Predicate
	for _, p := range preds {
		if s.Has(p.Col) {
			local = append(local, p)
		}
	}
	if len(local) == 0 {
		return rows
	}
	out := rows[:0:0]
	for _, r := range rows {
		if matchesAll(s, r, local) {
			out = append(out, r)
		}
	}
	return out
}

// stripColumn removes column i from the schema and rows.
func stripColumn(s *storage.Schema, rows []storage.Row, idx int) (*storage.Schema, []storage.Row) {
	cols := make([]storage.Column, 0, len(s.Columns)-1)
	for i, c := range s.Columns {
		if i != idx {
			cols = append(cols, c)
		}
	}
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		row := make(storage.Row, 0, len(cols))
		row = append(row, r[:idx]...)
		row = append(row, r[idx+1:]...)
		out[i] = row
	}
	return storage.NewSchema(cols...), out
}

func lowerNames(s *storage.Schema) []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = strings.ToLower(c.Name)
	}
	return out
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
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

// fetch serves dimension tables to the join machinery from their heap
// segments (full scans, counted).
func (st *Store) fetch(rs *runState) index.TableFetch {
	return func(table string) (*storage.Schema, []storage.Row, error) {
		key := strings.ToLower(table)
		h := st.heaps[key]
		if h == nil {
			return nil, nil, fmt.Errorf("exec: unknown table %q", table)
		}
		heap, err := st.segment(h)
		if err != nil {
			return nil, nil, err
		}
		rows, err := rs.readRange(heap.Seg, 0, heap.Seg.NumPages())
		if err != nil {
			return nil, nil, err
		}
		rs.paths = append(rs.paths, fmt.Sprintf("seg-scan %s (%d pages)", table, heap.Seg.NumPages()))
		return heap.Schema(), rows, nil
	}
}

func (st *Store) neededCols(q *workload.Query, table string) []string {
	has := func(tbl, col string) bool {
		t := st.db.Table(tbl)
		return t != nil && t.Schema.Has(col)
	}
	if len(q.Aggs) == 0 && len(q.GroupBy) == 0 && len(q.Select) == 0 {
		// SELECT *: every column of the driving table.
		return st.db.MustTable(table).Schema.Names()
	}
	return q.ColumnsOn(table, has)
}

// runAggregate pulls the driving-table stream through join → filter →
// group accumulation. Float sums make the accumulation order-sensitive, so
// the stream is opened ordered: every batch arrives in insertion (RID)
// order and the result stays byte-identical to the oracle's.
func (st *Store) runAggregate(rs *runState, q *workload.Query) (*Result, error) {
	fact := q.Tables[0]
	has := func(tbl, col string) bool {
		t := st.db.Table(tbl)
		return t != nil && t.Schema.Has(col)
	}
	src, err := st.accessStream(rs, fact, q.PredsOn(fact, has), st.neededCols(q, fact), true)
	if err != nil {
		return nil, err
	}
	jn, err := index.NewJoiner(st.db, fact, src.schema, q.Joins, st.fetch(rs))
	if err != nil {
		return nil, err
	}
	flt, err := index.NewRowFilter(jn.Schema(), q.Preds)
	if err != nil {
		return nil, err
	}
	acc, err := index.NewGroupAcc(jn.Schema(), q.GroupBy, q.Aggs)
	if err != nil {
		return nil, err
	}
	if err := src.forEach(func(r storage.Row) error {
		wide, ok := jn.JoinRow(r)
		if ok && flt.Keep(wide) {
			acc.Add(wide)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	schema, rows := acc.Finish()
	return finishAggregate(schema, rows, q)
}

// runProjection pulls the driving-table stream through join → filter and
// collects the survivors. Without an ORDER BY the shared shaping tail
// canonicalizes the output, so the stream may deliver in whatever order the
// access path produces (covering seeks skip order restoration entirely);
// with one, ordered delivery keeps tie-breaking identical to the oracle's.
func (st *Store) runProjection(rs *runState, q *workload.Query) (*Result, error) {
	fact := q.Tables[0]
	has := func(tbl, col string) bool {
		t := st.db.Table(tbl)
		return t != nil && t.Schema.Has(col)
	}
	src, err := st.accessStream(rs, fact, q.PredsOn(fact, has), st.neededCols(q, fact), len(q.OrderBy) > 0)
	if err != nil {
		return nil, err
	}
	jn, err := index.NewJoiner(st.db, fact, src.schema, q.Joins, st.fetch(rs))
	if err != nil {
		return nil, err
	}
	flt, err := index.NewRowFilter(jn.Schema(), q.Preds)
	if err != nil {
		return nil, err
	}
	var rows []storage.Row
	if err := src.forEach(func(r storage.Row) error {
		if wide, ok := jn.JoinRow(r); ok && flt.Keep(wide) {
			rows = append(rows, wide)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return finishProjection(st.db, fact, jn.Schema(), rows, q)
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
	t := st.db.Table(u.Table)
	if t == nil {
		return 0, rs.io, fmt.Errorf("exec: unknown table %q", u.Table)
	}
	// Locate through the access layer so the lookup I/O is accounted; the
	// mutation itself is delegated to the oracle-path implementation, which
	// is the semantics being validated.
	if _, _, err := st.access(rs, u.Table, u.Preds, t.Schema.Names()); err != nil {
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
	t := st.db.Table(d.Table)
	if t == nil {
		return 0, rs.io, fmt.Errorf("exec: unknown table %q", d.Table)
	}
	if _, _, err := st.access(rs, d.Table, d.Preds, t.Schema.Names()); err != nil {
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
