package sizing

import (
	"fmt"
	"sync"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/obs"
	"cadb/internal/sampling"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// Source records how an estimate was produced.
type Source uint8

const (
	// SourceExact comes from a fully built index (zero cost, zero error) —
	// the "existing index" case of Section 5.1.
	SourceExact Source = iota
	// SourceSampled comes from SampleCF.
	SourceSampled
	// SourceColSet comes from the column-set deduction.
	SourceColSet
	// SourceColExt comes from column extrapolation.
	SourceColExt
	// SourceUncompressed is the statistics-only estimate for uncompressed
	// indexes (no sampling needed, as the paper notes).
	SourceUncompressed
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceExact:
		return "exact"
	case SourceSampled:
		return "samplecf"
	case SourceColSet:
		return "colset"
	case SourceColExt:
		return "colext"
	case SourceUncompressed:
		return "stats"
	}
	return "?"
}

// Estimate is a size estimate for one index definition, with its error
// distribution (the random variable X = estimate/truth, Appendix C).
type Estimate struct {
	Def               *index.Def
	Rows              int64
	UncompressedBytes int64
	Bytes             int64
	CF                float64
	Source            Source
	// Mean is E[X] (1 = unbiased); Std is the standard deviation of X.
	Mean, Std float64
	// Cost is the estimation cost paid, in sample-index pages (Section 5.1:
	// "the amount of data we need to index").
	Cost float64
}

// Pages returns the estimated page count.
func (e *Estimate) Pages() int64 { return storage.PagesForBytes(e.Bytes) }

// String renders the estimate.
func (e *Estimate) String() string {
	return fmt.Sprintf("%s: %d rows, %d bytes (cf=%.3f) via %s ±%.3f", e.Def, e.Rows, e.Bytes, e.CF, e.Source, e.Std)
}

// Estimator caches size estimates for one database + sample manager. It is
// safe for concurrent use: the advisor sizes distinct candidate definitions
// from a worker pool. The mutex guards the caches; each definition's estimate
// is recorded at most once (a concurrent duplicate computation discards its
// result in favor of the cached one, so the recorded counters stay
// deterministic). SampleCF records into the sample manager's recorder.
type Estimator struct {
	DB    *catalog.Database
	Mgr   *sampling.Manager
	Model *ErrorModel

	mu    sync.Mutex
	cache map[string]*Estimate
	// mats caches the materialized-and-sorted sample leaf rows per index
	// structure, so SampleCF on the ROW and PAGE variants of one structure
	// (same table, same key columns) shares a single sorted sample scan and
	// only re-runs the compression sizing.
	mats map[string]*materialization
	// columns holds the single-column definitions the deduction graph
	// invents for ColExt, one per (table, column, method), so each renders
	// its identity once however many targets and admissions name it.
	columns map[columnKey]*index.Def
}

type columnKey struct {
	table, col string
	m          compress.Method
}

// materialization is the per-structure part of SampleCF: the index's leaf
// rows built over the sample, sorted by key, with RIDs spread over the full
// table's range. Identical for every compression method of the structure.
type materialization struct {
	rows     []storage.Row
	fullRows int64
	uncBytes int64 // uncompressed size of the sample index

	// sizes is the size model over the sample index. It measures each method
	// the first time a variant asks for it, so every further design on the
	// structure sizes in O(columns) — the shared-sample reuse that makes
	// greedy per-column refinement affordable.
	sizes *compress.DesignSizes
}

// NewEstimator creates an estimator.
func NewEstimator(db *catalog.Database, mgr *sampling.Manager) *Estimator {
	return &Estimator{DB: db, Mgr: mgr, Model: DefaultErrorModel(),
		cache: make(map[string]*Estimate), mats: make(map[string]*materialization),
		columns: make(map[columnKey]*index.Def)}
}

// columnDef returns the single-column index on the table under method m.
func (e *Estimator) columnDef(table, col string, m compress.Method) *index.Def {
	k := columnKey{table, col, m}
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.columns[k]
	if !ok {
		d = &index.Def{Table: table, KeyCols: []string{col}, Method: m}
		e.columns[k] = d
	}
	return d
}

// Cached returns the cached estimate for the definition, if any.
func (e *Estimator) Cached(d *index.Def) (*Estimate, bool) {
	id := d.ID()
	e.mu.Lock()
	est, ok := e.cache[id]
	e.mu.Unlock()
	return est, ok
}

// Put inserts an estimate into the cache (used for existing indexes with
// exactly known sizes).
func (e *Estimator) Put(est *Estimate) {
	e.mu.Lock()
	e.cache[est.Def.ID()] = est
	e.mu.Unlock()
}

// Forget drops the cached estimate for a definition (used by error studies
// that re-derive the same index through different deduction routes).
func (e *Estimator) Forget(d *index.Def) {
	e.mu.Lock()
	delete(e.cache, d.ID())
	e.mu.Unlock()
}

// PutExact records a fully built index as a zero-cost, zero-error estimate.
func (e *Estimator) PutExact(p *index.Physical) *Estimate {
	est := &Estimate{
		Def:               p.Def,
		Rows:              p.Rows,
		UncompressedBytes: p.UncompressedBytes,
		Bytes:             p.Bytes,
		CF:                p.CF(),
		Source:            SourceExact,
		Mean:              1,
		Std:               0,
	}
	e.Put(est)
	return est
}

// sampleBase returns the sample rows the index should be built over and the
// full row count they stand for.
func (e *Estimator) sampleBase(d *index.Def) (*storage.Schema, []storage.Row, int64, error) {
	switch {
	case d.MV != nil:
		ms, err := e.Mgr.MVSampleFor(d.MV)
		if err != nil {
			return nil, nil, 0, err
		}
		return ms.Schema, ms.Rows, ms.EstimatedRows, nil
	case d.IsPartial():
		t, rows, full, err := e.partialSample(d)
		if err != nil {
			return nil, nil, 0, err
		}
		return t.Schema, rows, full, nil
	default:
		s, err := e.Mgr.Sample(d.Table)
		if err != nil {
			return nil, nil, 0, err
		}
		return s.Table.Schema, s.Rows, s.Table.RowCount(), nil
	}
}

// partialSample returns the sample rows that pass a partial index's filter,
// with their table and the full-table row count they stand for.
func (e *Estimator) partialSample(d *index.Def) (*catalog.Table, []storage.Row, int64, error) {
	s, err := e.Mgr.Sample(d.Table)
	if err != nil {
		return nil, nil, 0, err
	}
	rows, err := index.FilterRows(s.Table.Schema, s.Rows, d.Where)
	if err != nil {
		return nil, nil, 0, err
	}
	frac := float64(len(rows)) / max(1, float64(len(s.Rows)))
	return s.Table, rows, int64(frac * float64(s.Table.RowCount())), nil
}

// materialize builds (or returns the cached) sorted sample leaf rows for the
// index's structure. The result is method-independent: every compression
// variant of one structure shares it, so a batch of SampleCF targets on the
// same (table, key columns) pays for one sorted sample scan.
func (e *Estimator) materialize(d *index.Def) (*materialization, error) {
	key := d.StructureID()
	e.mu.Lock()
	if m, ok := e.mats[key]; ok {
		e.mu.Unlock()
		return m, nil
	}
	e.mu.Unlock()
	baseSchema, baseRows, fullRows, err := e.sampleBase(d)
	if err != nil {
		return nil, err
	}
	// For a clustered MV-less index the leaf carries the whole row set.
	schema, leafRows, err := index.MaterializeOver(baseSchema, baseRows, d)
	if err != nil {
		return nil, err
	}
	// Spread the sample's row locators over the full table's RID range:
	// real row locators are full-width regardless of sample size, and
	// letting the sample's small sequential RIDs compress would bias CF low.
	if ri := schema.ColIndex("__rid"); ri >= 0 && len(leafRows) > 0 && fullRows > int64(len(leafRows)) {
		scale := fullRows / int64(len(leafRows))
		if scale < 1 {
			scale = 1
		}
		for _, r := range leafRows {
			r[ri] = storage.IntVal(r[ri].Int * scale)
		}
	}
	m := &materialization{
		rows:     leafRows,
		fullRows: fullRows,
		uncBytes: storage.PackedBytes(schema, leafRows),
		sizes:    compress.MeasureDesignSizes(schema, leafRows),
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.mats[key]; ok {
		// A concurrent caller finished first; keep its copy.
		return prev, nil
	}
	e.mats[key] = m
	return m, nil
}

// SampleCF estimates the index size by building it on the sample and
// compressing it (Section 2.2 / 4.1). The result is cached, and the
// materialized sample index is shared across the structure's compression
// variants.
func (e *Estimator) SampleCF(d *index.Def) (*Estimate, error) {
	if est, ok := e.Cached(d); ok {
		return est, nil
	}
	start := time.Now()
	mat, err := e.materialize(d)
	if err != nil {
		return nil, err
	}
	compSample, err := mat.sizes.SizeFor(d.Method, d.ColMethods)
	if err != nil {
		return nil, fmt.Errorf("sizing: %s: %w", d, err)
	}
	cf := 1.0
	if mat.uncBytes > 0 {
		cf = float64(compSample) / float64(mat.uncBytes)
	}
	entryW := 40.0
	if len(mat.rows) > 0 {
		entryW = float64(mat.uncBytes) / float64(len(mat.rows))
	}
	unc := int64(entryW * float64(mat.fullRows))
	est := &Estimate{
		Def:               d,
		Rows:              mat.fullRows,
		UncompressedBytes: unc,
		Bytes:             int64(cf * float64(unc)),
		CF:                cf,
		Source:            SourceSampled,
		Cost:              float64(storage.PagesForBytes(mat.uncBytes)),
	}
	est.Mean, est.Std = e.Model.SampleError(d.Method, e.Mgr.F)
	elapsed := time.Since(start)
	e.mu.Lock()
	if prev, ok := e.cache[d.ID()]; ok {
		// A concurrent caller finished first; keep its estimate and record
		// nothing, so each definition is counted exactly once.
		e.mu.Unlock()
		return prev, nil
	}
	e.cache[d.ID()] = est
	e.mu.Unlock()
	// Costs are whole page counts, so their float sum is exact in any order.
	e.Mgr.Recorder().Add(func(t *obs.Timing) {
		t.EstimationCost += est.Cost
		t.SampleCFCalls++
		switch {
		case d.MV != nil:
			t.MVEstimate += elapsed
		case d.IsPartial():
			t.PartialEstim += elapsed
		default:
			t.TableEstimate += elapsed
		}
	})
	return est, nil
}

// EstimateUncompressed produces the statistics-only estimate for the
// uncompressed variant of an index — no sampling needed, as the paper notes
// ("for an uncompressed index, it is relatively straightforward to estimate
// the size once the number of rows and average row length is known").
// For MV indexes the row count still needs an MV sample (Appendix B.3).
func (e *Estimator) EstimateUncompressed(d *index.Def) (*Estimate, error) {
	key := d.Uncompressed().ID()
	e.mu.Lock()
	if est, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return est, nil
	}
	e.mu.Unlock()
	var rows int64
	var entryW float64
	switch {
	case d.MV != nil:
		ms, err := e.Mgr.MVSampleFor(d.MV)
		if err != nil {
			return nil, err
		}
		rows = ms.EstimatedRows
		sch, leaf, err := index.MaterializeOver(ms.Schema, ms.Rows, d.Uncompressed())
		if err != nil {
			return nil, err
		}
		entryW = float64(storage.PackedBytes(sch, leaf)) / max(1, float64(len(leaf)))
	default:
		t := e.DB.Table(d.Table)
		if t == nil {
			return nil, fmt.Errorf("sizing: unknown table %q", d.Table)
		}
		rows = t.RowCount()
		if d.IsPartial() {
			var err error
			if _, _, rows, err = e.partialSample(d); err != nil {
				return nil, err
			}
		}
		entryW = e.entryWidthFromStats(t, d)
	}
	unc := int64(entryW * float64(rows))
	est := &Estimate{
		Def:               d.Uncompressed(),
		Rows:              rows,
		UncompressedBytes: unc,
		Bytes:             unc,
		CF:                1,
		Source:            SourceUncompressed,
		Mean:              1,
		Std:               0.002, // avg-row-width estimates are near exact
	}
	e.mu.Lock()
	if prev, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return prev, nil
	}
	e.cache[key] = est
	e.mu.Unlock()
	return est, nil
}

// entryWidthFromStats computes the average leaf entry width from catalog
// statistics (fixed widths + average varchar widths + bitmap/slot/RID
// overhead).
func (e *Estimator) entryWidthFromStats(t *catalog.Table, d *index.Def) float64 {
	cols := e.colsOf(d)
	w := float64((len(cols)+7)/8 + storage.SlotSize)
	if !d.Clustered {
		w += 8 // RID
		w += 1.0 / 8
	}
	st := t.Stats()
	for _, c := range cols {
		col := t.Schema.Col(c)
		if cw := col.Width(); cw > 0 {
			w += float64(cw)
			continue
		}
		if aw := st.AvgWidth(c); aw > 0 {
			w += aw
		} else {
			w += 16
		}
	}
	return w
}

// PlanPages returns the f-independent part of a SampleCF cost: the data
// pages of the full index, from statistics only. The graph-search planner
// computes it once per node and scales it by each sampling fraction through
// sampleCost.
func (e *Estimator) PlanPages(d *index.Def) float64 {
	rows, entryW := e.planShape(d)
	return rows * entryW / storage.UsablePageBytes
}

// sampleCost returns the abstract cost of running SampleCF at sampling
// fraction f on an index of the given PlanPages, before actually doing it:
// the number of data pages of the index built on the sample (Section 5.1's
// cost model), at least one. The planner compares strategies with it without
// paying for them.
func sampleCost(pages, f float64) float64 {
	return max(1, f*pages)
}

// planShape estimates (rows, entry width) from statistics only.
func (e *Estimator) planShape(d *index.Def) (float64, float64) {
	if d.MV != nil {
		fact := e.DB.Table(d.MV.Fact)
		if fact == nil {
			return 1000, 40
		}
		rows := float64(fact.RowCount())
		if len(d.MV.GroupBy) > 0 {
			// Independence-capped product of distincts — rough but cheap.
			prod := 1.0
			for _, g := range d.MV.GroupBy {
				if t := d.MV.ColumnTable(e.DB, g); t != nil {
					if cs := t.Stats().Col(g.Col); cs != nil && cs.Distinct > 0 {
						prod *= float64(cs.Distinct)
					}
				}
			}
			if prod < rows {
				rows = prod
			}
		}
		w := 16.0 + 12*float64(len(d.MV.GroupBy)+len(d.MV.Aggs))
		return rows, w
	}
	t := e.DB.Table(d.Table)
	if t == nil {
		return 1000, 40
	}
	rows := float64(t.RowCount())
	if d.IsPartial() {
		// Cheap distinct-count selectivity; good enough for cost planning.
		for _, p := range d.Where {
			if cs := t.Stats().Col(p.Col); cs != nil && cs.Distinct > 0 {
				if p.Op == workload.OpEq {
					rows /= float64(cs.Distinct)
				} else {
					rows *= 0.3
				}
			}
		}
	}
	return rows, e.entryWidthFromStats(t, d)
}
