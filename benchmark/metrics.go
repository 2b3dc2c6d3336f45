package main

import (
	"math"
	"sort"
	"time"

	"cadb"
)

// metricDef names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before -compare calls it a
// regression; per-layer metrics carry no bound. The root BENCHMARK.json
// repeats these tables for the driver; bench_test.go keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Bound  float64
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "tune_s", Unit: "s", Bound: 0.2},
	{Name: "deploy_s", Unit: "s", Bound: 0.25},
	{Name: "pass_s", Unit: "s", Bound: 0.2},
	{Name: "loop_s", Unit: "s", Bound: 0.2},
	{Name: "stmt_p50_ms", Unit: "ms", Bound: 0.2},
	{Name: "stmt_p95_ms", Unit: "ms", Bound: 0.25},
	{Name: "predicted_improvement_pct", Unit: "%", Higher: true, Bound: 0.02},
}

// methods are the five uniform compression methods the index/compress probes
// sweep; the names are the <M> suffix of the per-method metrics.
var methods = []struct {
	Name   string
	Method cadb.CompressionMethod
}{
	{"NONE", cadb.NoCompression}, {"ROW", cadb.RowCompression}, {"PAGE", cadb.PageCompression},
	{"GDICT", cadb.GlobalDictCompression}, {"RLE", cadb.RLECompression},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit}
		}
		return out
	}
	higher := func(unit string, names ...string) []metricDef {
		out := lower(unit, names...)
		for i := range out {
			out[i].Higher = true
		}
		return out
	}
	var defs []metricDef
	add := func(ds []metricDef) { defs = append(defs, ds...) }

	add(lower("s", "datagen.generate_s"))
	add(lower("ms", "sqlparse.parse_ms"))
	add(lower("s", "core.candidate_gen_s", "core.estimate_all_s", "core.enumerate_s", "core.refine_s", "core.other_s"))
	add(lower("count", "core.candidates", "core.selected", "core.whatif_evals", "core.refinements"))
	add(lower("MB", "core.tune_alloc_mb"))
	add(lower("s", "sampling.build_s", "sizeest.prepare_s"))
	add(lower("count", "sizeest.samplecf_calls"))
	add(higher("ratio", "sizeest.deduced_share"))
	add(lower("%", "sizeest.size_err_pct"))
	add(lower("us", "optimizer.whatif_cold_us", "optimizer.whatif_warm_us", "optimizer.evaluator_add_us"))
	add(higher("%", "optimizer.stmt_reuse_pct", "optimizer.cache_hit_pct"))
	add(lower("%", "optimizer.page_read_err_pct"))
	for _, m := range methods {
		add(higher("MB/s", "index.build_mbps."+m.Name))
	}
	for _, m := range methods {
		add(lower("ratio", "compress.ratio."+m.Name))
	}
	for _, m := range methods {
		add(higher("MB/s", "index.scan_mbps."+m.Name))
	}
	for _, m := range methods {
		add(higher("MB/s", "index.scan1col_mbps."+m.Name))
	}
	add(higher("MB/s", "storage.spill_mbps", "storage.fetch_cold_mbps"))
	add(lower("us", "storage.fetch_warm_us"))
	add(higher("%", "bufferpool.hit_pct"))
	add(lower("count", "bufferpool.misses_per_pass", "bufferpool.evictions_per_pass"))
	add(lower("MB", "bufferpool.mb_read_per_pass"))
	add(lower("ratio", "bufferpool.peak_over_capacity"))
	add(lower("count", "bufferpool.prefetched_per_pass"))
	add(lower("s", "exec.query_s", "exec.write_s"))
	add(lower("count", "exec.page_reads", "exec.pages_decoded", "exec.tuples_decoded", "exec.columns_decoded"))
	add(lower("ratio", "exec.tuples_per_row_out", "exec.top3_share"))
	add(lower("MB", "exec.pass_alloc_mb"))
	add(lower("s", "exec.heap_pass_s"))
	add(higher("ratio", "exec.speedup_vs_heap"))
	add(lower("s", "exec.oracle_pass_s"))
	add(lower("MB", "proc.peak_rss_mb"))
	add(lower("ms", "proc.gc_pause_ms"))
	add(lower("%", "trace.overhead_pct"))
	return defs
}

// sample is one reported metric: the median of N observations with their
// range, so two result files can tell a shift from their own spread.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// summarize reports the median of xs with its range.
func summarize(unit string, xs []float64) sample {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sample{Value: quantile(s, 0.5), Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// exact reports a single observation.
func exact(unit string, v float64) sample {
	return sample{Value: v, Unit: unit, Min: v, Max: v, N: 1}
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// percentile returns the q-quantile of unsorted observations.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
