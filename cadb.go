// Package cadb is a compression-aware physical database design advisor — a
// from-scratch Go reproduction of "Compression Aware Physical Database
// Design" (Kimura, Narasayya, Syamala; PVLDB 4(10), 2011).
//
// The library bundles everything the paper's system needs, built on the
// standard library only:
//
//   - a small row-store storage engine with real page-level compression
//     (ROW/null-suppression, PAGE/prefix+local-dictionary, global
//     dictionary, RLE) so index sizes are measured, not modeled;
//   - a query optimizer with histogram-based cardinality estimation, a
//     what-if API, and the paper's compression-aware cost model
//     (α·tuples_written on updates, β·tuples_read·columns_read on reads);
//   - the compressed-index size-estimation framework: amortized per-table
//     samples, SampleCF, join synopses, MV samples with an Adaptive
//     Estimator, ColSet/ColExt deductions, the stochastic error model, and
//     the estimation-plan graph search (greedy + exact optimal);
//   - the advisor itself (DTA/DTAc): per-query candidate generation,
//     skyline candidate selection, index merging, and greedy enumeration
//     with compressed-variant backtracking under a storage bound;
//   - TPC-H-, TPC-DS- and Sales-shaped data generators with tunable Zipf
//     skew, plus the corresponding SQL workloads;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	db := cadb.NewTPCH(cadb.TPCHConfig{LineitemRows: 20000, Seed: 1})
//	wl := cadb.TPCHWorkload()
//	opts := cadb.DefaultOptions(db.TotalHeapBytes() / 4) // 25% budget
//	rec, err := cadb.Tune(db, wl, opts)
//	if err != nil { ... }
//	fmt.Println(rec)
package cadb

import (
	"fmt"
	"io"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/estimator"
	"cadb/internal/exec"
	"cadb/internal/experiments"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/sampling"
	"cadb/internal/sizeest"
	"cadb/internal/sizing"
	"cadb/internal/sqlparse"
	"cadb/internal/storage"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// ---------------------------------------------------------------------------
// Data model

// Database is a set of tables with rows and statistics.
type Database = catalog.Database

// Table is one relation.
type Table = catalog.Table

// Workload is a weighted set of SQL statements.
type Workload = workload.Workload

// Statement is one workload entry (query or bulk insert).
type Statement = workload.Statement

// Query is a SELECT statement in the supported subset.
type Query = workload.Query

// IndexDef describes a (possibly compressed, partial, clustered or MV)
// index.
type IndexDef = index.Def

// MVDef describes a materialized view (fact, FK joins, WHERE, GROUP BY,
// aggregates).
type MVDef = index.MVDef

// CompressionMethod identifies a compression method.
type CompressionMethod = compress.Method

// Compression methods supported by the storage engine.
const (
	// NoCompression stores plain rows.
	NoCompression = compress.None
	// RowCompression is null/blank suppression (SQL Server ROW).
	RowCompression = compress.Row
	// PageCompression is prefix + per-page dictionary (SQL Server PAGE).
	PageCompression = compress.Page
	// GlobalDictCompression is a whole-index per-column dictionary.
	GlobalDictCompression = compress.GlobalDict
	// RLECompression is per-page run-length encoding.
	RLECompression = compress.RLE
)

// HasCodec reports whether the method has a materializing page codec (and so
// can back a physical segment). Every recommendable method does: a uniform
// method is the per-column design whose columns all share it.
func HasCodec(m CompressionMethod) bool { return compress.HasCodec(m) }

// PageCodec encodes rows into page payloads and back.
type PageCodec = storage.PageCodec

// DesignCodec returns a fresh page codec for a per-column design: def as the
// default method with overrides for individual columns (as in
// IndexDef.ColMethods). Pages are column-major with one framed section per
// column; the per-segment state (the global dictionaries) rides in the
// segment file's header. One instance serves one segment.
func DesignCodec(def CompressionMethod, overrides map[string]CompressionMethod) PageCodec {
	return compress.DesignCodec(def, overrides)
}

// ---------------------------------------------------------------------------
// Data and workload generation

// TPCHConfig sizes the TPC-H-shaped generator.
type TPCHConfig = datagen.TPCHConfig

// SalesConfig sizes the Sales star-schema generator.
type SalesConfig = datagen.SalesConfig

// TPCDSConfig sizes the TPC-DS-shaped generator.
type TPCDSConfig = datagen.TPCDSConfig

// NewTPCH generates a TPC-H-shaped database (LineitemRows scales everything;
// Zipf sets the paper's Z skew parameter).
func NewTPCH(cfg TPCHConfig) *Database { return datagen.NewTPCH(cfg) }

// NewSales generates the Sales star schema standing in for the paper's real
// customer database.
func NewSales(cfg SalesConfig) *Database { return datagen.NewSales(cfg) }

// NewTPCDS generates a TPC-DS-shaped star schema (used by the error
// stability analysis).
func NewTPCDS(cfg TPCDSConfig) *Database { return datagen.NewTPCDS(cfg) }

// TPCHWorkload returns the 22-query + 2-bulk-load TPC-H-shaped workload.
func TPCHWorkload() *Workload { return workloads.MustTPCH() }

// SalesWorkload returns the generated 50-query + 2-bulk-load Sales workload.
func SalesWorkload(seed int64) *Workload { return workloads.MustSales(seed) }

// TPCHWorkloadWithUpdates returns the TPC-H-shaped workload extended with
// predicated UPDATE/DELETE statements (the update-capable variant).
func TPCHWorkloadWithUpdates() *Workload { return workloads.MustTPCHWithUpdates() }

// SalesWorkloadWithUpdates returns the generated Sales workload extended
// with seeded UPDATE/DELETE statements over the fact table.
func SalesWorkloadWithUpdates(seed int64) *Workload { return workloads.MustSalesWithUpdates(seed) }

// SelectIntensive scales the bulk-load weights down by 10x.
func SelectIntensive(wl *Workload) *Workload { return workloads.SelectIntensive(wl) }

// InsertIntensive scales the bulk-load weights up by 10x.
func InsertIntensive(wl *Workload) *Workload { return workloads.InsertIntensive(wl) }

// UpdateIntensive scales the UPDATE/DELETE weights up by 10x.
func UpdateIntensive(wl *Workload) *Workload { return workloads.UpdateIntensive(wl) }

// ChunkedSource streams a deterministic synthetic fact table in fixed-size
// blocks whose randomness is re-derived per (seed, block), so any block can
// be generated independently — the out-of-core generation path that reaches
// 10⁷ rows without materializing a database.
type ChunkedSource = datagen.ChunkedSource

// ChunkedBlockRows is the fixed block size of a ChunkedSource.
const ChunkedBlockRows = datagen.ChunkedBlockRows

// NewChunkedSource returns the out-of-core fact generator for a dataset name
// ("tpch" or "sales"). The rows match the in-memory generators' schema and
// distributions (not row-for-row — dimension-derived values are hashed from
// keys instead of looked up).
func NewChunkedSource(name string, rows int, zipf float64, seed int64) (*ChunkedSource, error) {
	return datagen.ChunkedByName(name, rows, zipf, seed)
}

// ParseWorkload parses a SQL workload script (semicolon-separated statements
// with optional "-- label: X weight: N" directives).
func ParseWorkload(sql string) (*Workload, error) { return sqlparse.ParseScript(sql) }

// ParseStatement parses a single SQL statement in the supported subset.
func ParseStatement(sql string) (*Statement, error) { return sqlparse.ParseStatement(sql) }

// ---------------------------------------------------------------------------
// The advisor

// Options configures an advisor run; see DefaultOptions and DTAOptions.
type Options = core.Options

// Recommendation is the advisor's output.
type Recommendation = core.Recommendation

// Advisor is the compression-aware physical design advisor.
type Advisor = core.Advisor

// DefaultOptions returns the full DTAc configuration (compression, skyline
// selection and backtracking enabled) at the given storage budget in bytes.
func DefaultOptions(budget int64) Options { return core.DefaultOptions(budget) }

// DTAOptions returns the compression-blind baseline configuration.
func DTAOptions(budget int64) Options { return core.DTAOptions(budget) }

// NewAdvisor creates an advisor for a database and workload.
func NewAdvisor(db *Database, wl *Workload, opts Options) *Advisor {
	return core.New(db, wl, opts)
}

// Tune runs the advisor end to end.
func Tune(db *Database, wl *Workload, opts Options) (*Recommendation, error) {
	return core.New(db, wl, opts).Recommend()
}

// ---------------------------------------------------------------------------
// What-if optimizer and size estimation (the substrate APIs)

// CostModel is the compression-aware optimizer cost model with the what-if
// API (Cost, Plan, WorkloadCost, Improvement).
type CostModel = optimizer.CostModel

// Configuration is a set of hypothetical indexes.
type Configuration = optimizer.Configuration

// HypoIndex is a hypothetical index with (estimated) size information.
type HypoIndex = optimizer.HypoIndex

// NewCostModel builds the default cost model for a database.
func NewCostModel(db *Database) *CostModel { return optimizer.NewCostModel(db) }

// NewConfiguration builds a configuration from hypothetical indexes.
func NewConfiguration(idxs ...*HypoIndex) *Configuration {
	return optimizer.NewConfiguration(idxs...)
}

// BuildIndex physically materializes an index and measures its exact size.
func BuildIndex(db *Database, d *IndexDef) (*index.Physical, error) { return index.Build(db, d) }

// FromPhysical wraps a built index as a hypothetical index with exact sizes.
func FromPhysical(p *index.Physical) *HypoIndex { return optimizer.FromPhysical(p) }

// SizeEstimator estimates compressed index sizes via SampleCF and deduction.
type SizeEstimator = estimator.Estimator

// SizeEstimate is one size estimate with its error distribution.
type SizeEstimate = estimator.Estimate

// NewSizeEstimator creates an estimator over a fresh sample manager with
// sampling fraction f.
func NewSizeEstimator(db *Database, f float64, seed int64) *SizeEstimator {
	return estimator.New(db, sampling.NewManager(db, f, seed))
}

// SizeOracle is the size-estimation orchestration layer the advisor runs on:
// plan the estimation strategy over shared f-grid prefix samples, execute
// the deduction DAG in parallel with batched SampleCF, and admit
// late-arriving index definitions into the live graph. Estimates are
// byte-identical to the serial plan-execution path at any worker count.
type SizeOracle = sizeest.Oracle

// SizeOracleConfig parameterizes a size oracle.
type SizeOracleConfig = sizeest.Config

// SizeAccounting is the oracle's runtime split and admission counters.
type SizeAccounting = sizeest.Accounting

// NewSizeOracle creates a size oracle.
func NewSizeOracle(db *Database, cfg SizeOracleConfig) *SizeOracle {
	return sizeest.New(db, cfg)
}

// EstimationPlan is a solved estimation strategy (which indexes to SampleCF,
// which to deduce).
type EstimationPlan = sizing.Plan

// PlanEstimation runs the greedy graph search over the default sampling
// fraction grid and returns the cheapest feasible plan plus the estimator to
// execute it with (tolerance e, confidence q as in Section 5.1).
func PlanEstimation(db *Database, targets []*IndexDef, e, q float64, seed int64) (*EstimationPlan, *SizeEstimator) {
	return sizing.Sweep(db, targets, nil, e, q, seed)
}

// ExecuteEstimation runs a plan, returning estimates keyed by IndexDef.ID().
func ExecuteEstimation(est *SizeEstimator, p *EstimationPlan) (map[string]*SizeEstimate, error) {
	return sizing.Execute(est, p)
}

// ---------------------------------------------------------------------------
// The physical page store and segment-backed execution

// Segment is a materialized compressed page store (rows encoded into real
// 8 KB slotted pages by a per-method codec).
type Segment = storage.Segment

// SegmentIndex is a physically materialized index: leaf rows compressed into
// a segment, with per-page low keys for leading-key seeks and measured
// sizes diffable against the size model.
type SegmentIndex = index.SegmentIndex

// SegmentStore is the segment-backed executor: per-table compressed page
// stores plus key-ordered index segments. Queries run as a streaming
// operator pipeline — pages decode lazily and column-selectively, with
// sargable predicates pushed down into the page codec — and report their
// physical I/O. Results are byte-identical to the plain-row reference
// executor. UPDATE and DELETE locate their rows through the same cursors.
type SegmentStore = exec.Store

// ExecResult is an executed query's output (rows plus, for segment-backed
// runs, the I/O counters and access-path descriptions).
type ExecResult = exec.Result

// ExecIOStats counts the physical work of a segment-backed execution: page
// reads, pages and tuples decoded, per-page column payloads decoded, and —
// under the disk-backed path — buffer-pool hits, misses and bytes read.
type ExecIOStats = exec.IOStats

// DecodeSpec tells a page codec which columns to reconstruct and which
// predicates to evaluate during decode (the pushed-down half of a streaming
// scan).
type DecodeSpec = storage.DecodeSpec

// ColPredicate is one pushed-down comparison: a column ordinal, an operator
// and bounds pre-coerced to the column kind.
type ColPredicate = storage.ColPredicate

// BuildSegmentIndex materializes an index definition as a compressed page
// segment under its per-column design.
func BuildSegmentIndex(db *Database, d *IndexDef) (*SegmentIndex, error) {
	return index.BuildSegmentIndex(db, d)
}

// NewSegmentStore materializes a physical design as a segment-backed store.
// The design deploys — every structure builds — at the store's first
// statement, so SetDiskBacked and SetPrefetch still apply to every segment.
func NewSegmentStore(db *Database, defs []*IndexDef) (*SegmentStore, error) {
	return exec.NewStore(db, defs)
}

// ---------------------------------------------------------------------------
// Disk-backed segments and the buffer pool

// BufferPool is a byte-budgeted page cache with pin/unpin semantics and CLOCK
// eviction. Disk-backed segment stores fetch every page through one; pinned
// pages are never evicted and resident bytes never exceed the configured
// capacity.
type BufferPool = bufferpool.Pool

// BufferPoolStats are a pool's lifetime counters (hits, misses, evictions,
// bytes read from disk, peak resident bytes).
type BufferPoolStats = bufferpool.Stats

// NewBufferPool creates a pool holding at most capacityBytes of page
// payloads.
func NewBufferPool(capacityBytes int64) *BufferPool { return bufferpool.New(capacityBytes) }

// SegmentFile is the on-disk form of a segment: a checksummed header and
// page directory followed by the raw page payloads, readable page-by-page
// via ReadAt.
type SegmentFile = storage.SegmentFile

// WriteSegmentFile writes a segment's pages to disk and returns an open
// handle.
func WriteSegmentFile(path string, seg *Segment) (*SegmentFile, error) {
	return storage.WriteSegmentFile(path, seg)
}

// OpenSegmentFile opens an existing segment file, validating the header
// checksum.
func OpenSegmentFile(path string) (*SegmentFile, error) { return storage.OpenSegmentFile(path) }

// SegmentWriter builds a disk-backed segment from a stream of row batches
// without materializing all rows or pages in memory — byte-identical to a
// whole-slice build, holding only the tentative tail page between batches.
type SegmentWriter = storage.SegmentWriter

// NewChunkedSegmentWriter starts an out-of-core segment build at path for a
// chunked source's schema under the given compression method (which must
// have a materializing codec). Stream src's blocks through Append and call
// Finish with a buffer pool to obtain the disk-backed Segment.
func NewChunkedSegmentWriter(path string, src *ChunkedSource, m CompressionMethod) (*SegmentWriter, error) {
	codec := compress.Codec(m)
	if codec == nil {
		return nil, fmt.Errorf("cadb: method %s has no materializing codec", m)
	}
	return storage.NewSegmentWriter(path, src.Schema(), codec)
}

// WrapSegmentScanOnly wraps an already-built segment (e.g. a SegmentWriter's
// output) as a scan-only SegmentIndex: no per-page low keys, but full-scan
// cursors work unchanged.
func WrapSegmentScanOnly(seg *Segment, d *IndexDef) *SegmentIndex {
	return index.WrapSegment(seg, d)
}

// PoolProfile makes what-if costing buffer-pool-aware: the page-I/O cost
// terms of a structure that fits the pool's capacity are discounted by the
// resident hit rate. Install via CostModel.SetPoolProfile or
// Options.PoolProfile.
type PoolProfile = optimizer.PoolProfile

// NewPoolProfile returns a profile for a pool of the given capacity.
func NewPoolProfile(capacityBytes int64) *PoolProfile { return optimizer.NewPoolProfile(capacityBytes) }

// ---------------------------------------------------------------------------
// Experiments

// ExperimentScale sizes experiment runs.
type ExperimentScale = experiments.Scale

// DefaultExperimentScale is the README-documented full scale.
func DefaultExperimentScale() ExperimentScale { return experiments.DefaultScale() }

// QuickExperimentScale is the reduced smoke-test scale.
func QuickExperimentScale() ExperimentScale { return experiments.QuickScale() }

// ExperimentIDs lists the reproducible tables/figures.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table/figure, writing a text report.
func RunExperiment(id string, sc ExperimentScale, w io.Writer) error {
	return experiments.Run(id, sc, w)
}

// RunAllExperiments regenerates every table and figure in paper order.
func RunAllExperiments(sc ExperimentScale, w io.Writer) error {
	return experiments.RunAll(sc, w)
}
