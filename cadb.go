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
	"io"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/exec"
	"cadb/internal/experiments"
	"cadb/internal/index"
	"cadb/internal/optimizer"
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

// Workload is a weighted set of SQL statements.
type Workload = workload.Workload

// Statement is one workload entry (query or bulk insert).
type Statement = workload.Statement

// IndexDef describes a (possibly compressed, partial, clustered or MV)
// index.
type IndexDef = index.Def

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

// ParseWorkload parses a SQL workload script (semicolon-separated statements
// with optional "-- label: X weight: N" directives).
func ParseWorkload(sql string) (*Workload, error) { return sqlparse.ParseScript(sql) }

// ---------------------------------------------------------------------------
// The advisor

// Options configures an advisor run; see DefaultOptions and DTAOptions.
type Options = core.Options

// Recommendation is the advisor's output.
type Recommendation = core.Recommendation

// DefaultOptions returns the full DTAc configuration (compression, skyline
// selection and backtracking enabled) at the given storage budget in bytes.
func DefaultOptions(budget int64) Options { return core.DefaultOptions(budget) }

// DTAOptions returns the compression-blind baseline configuration.
func DTAOptions(budget int64) Options { return core.DTAOptions(budget) }

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
type SizeEstimator = sizing.Estimator

// SizeEstimate is one size estimate with its error distribution.
type SizeEstimate = sizing.Estimate

// SizeOracle is the size-estimation orchestration layer the advisor runs on:
// plan the estimation strategy over shared f-grid prefix samples, execute
// the deduction DAG in parallel with batched SampleCF, and admit
// late-arriving index definitions into the live graph. Estimates are
// byte-identical to the serial plan-execution path at any worker count.
type SizeOracle = sizeest.Oracle

// SizeOracleConfig parameterizes a size oracle.
type SizeOracleConfig = sizeest.Config

// NewSizeOracle creates a size oracle.
func NewSizeOracle(db *Database, cfg SizeOracleConfig) *SizeOracle {
	return sizeest.New(db, cfg)
}

// ---------------------------------------------------------------------------
// The physical page store and segment-backed execution

// SegmentIndex is a physically materialized index: leaf rows compressed into
// a segment, with per-page low keys for composite-key seeks and measured
// sizes diffable against the size model.
type SegmentIndex = index.SegmentIndex

// SegmentStore is the segment-backed executor: per-table compressed page
// stores plus key-ordered index segments. Every statement runs the access
// paths the cost model plans for it over the deployed design. Queries run as
// a streaming operator pipeline — pages decode lazily and column-selectively,
// with sargable predicates pushed down into the page codec — and report
// their physical I/O. Results are byte-identical to the plain-row reference
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

// BuildSegmentIndex materializes an index definition as a compressed page
// segment under its per-column design.
func BuildSegmentIndex(db *Database, d *IndexDef) (*SegmentIndex, error) {
	return index.BuildSegmentIndex(db, d)
}

// NewSegmentStore materializes a physical design as a segment-backed store.
// The design deploys — every structure builds, and the store's planner is
// set up over what was built — at the store's first statement, so
// SetDiskBacked and SetPrefetch still apply to every segment.
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

// ---------------------------------------------------------------------------
// Experiments

// ExperimentScale sizes experiment runs.
type ExperimentScale = experiments.Scale

// DefaultExperimentScale is the README-documented full scale.
func DefaultExperimentScale() ExperimentScale { return experiments.DefaultScale() }

// QuickExperimentScale is the reduced smoke-test scale.
func QuickExperimentScale() ExperimentScale { return experiments.QuickScale() }

// ExperimentIDs lists the reproducible tables/figures in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table/figure, writing a text report.
func RunExperiment(id string, sc ExperimentScale, w io.Writer) error {
	return experiments.Run(id, sc, w)
}

// RunAllExperiments regenerates every table and figure in paper order.
func RunAllExperiments(sc ExperimentScale, w io.Writer) { experiments.RunAll(sc, w) }
