package sizing

import (
	"math"
	"sync"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/sampling"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// The SampleCF and deduction tests keep their own database and sampling
// seed, apart from the planner tests', so their accuracy thresholds hold on
// the data they were set on.
var (
	estDBOnce sync.Once
	estDBv    *catalog.Database
)

func estDB() *catalog.Database {
	estDBOnce.Do(func() {
		estDBv = datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 12000, Seed: 31})
	})
	return estDBv
}

func sampleEst(f float64) *Estimator {
	return NewEstimator(estDB(), sampling.NewManager(estDB(), f, 17))
}

func buildTrue(t *testing.T, d *index.Def) *index.Physical {
	t.Helper()
	p, err := index.Build(estDB(), d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func relErr(est, truth int64) float64 {
	if truth == 0 {
		return 0
	}
	return math.Abs(float64(est-truth)) / float64(truth)
}

func TestSampleCFAccuracyRow(t *testing.T) {
	e := sampleEst(0.1)
	d := (&index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"},
		IncludeCols: []string{"l_shipmode", "l_shipinstruct", "l_quantity"}}).WithMethod(compress.Row)
	est, err := e.SampleCF(d)
	if err != nil {
		t.Fatal(err)
	}
	truth := buildTrue(t, d)
	if re := relErr(est.Bytes, truth.Bytes); re > 0.15 {
		t.Fatalf("SampleCF(ROW) err=%v est=%d true=%d", re, est.Bytes, truth.Bytes)
	}
	if est.Source != SourceSampled || est.Cost <= 0 {
		t.Fatalf("bad estimate metadata: %+v", est)
	}
}

func TestSampleCFAccuracyPage(t *testing.T) {
	e := sampleEst(0.1)
	d := (&index.Def{Table: "lineitem", KeyCols: []string{"l_shipmode"},
		IncludeCols: []string{"l_returnflag", "l_linestatus"}}).WithMethod(compress.Page)
	est, err := e.SampleCF(d)
	if err != nil {
		t.Fatal(err)
	}
	truth := buildTrue(t, d)
	if re := relErr(est.Bytes, truth.Bytes); re > 0.25 {
		t.Fatalf("SampleCF(PAGE) err=%v est=%d true=%d", re, est.Bytes, truth.Bytes)
	}
}

func TestSampleCFCaching(t *testing.T) {
	e := sampleEst(0.05)
	d := (&index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}}).WithMethod(compress.Row)
	a, err := e.SampleCF(d)
	if err != nil {
		t.Fatal(err)
	}
	calls := e.Mgr.Recorder().Timing().SampleCFCalls
	b, err := e.SampleCF(d)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || e.Mgr.Recorder().Timing().SampleCFCalls != calls {
		t.Fatal("SampleCF must cache by def ID")
	}
}

func TestSampleCFRejectsUnknownMethod(t *testing.T) {
	e := sampleEst(0.05)
	d := (&index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}}).WithColMethod("o_orderdate", compress.Method(9))
	if est, err := e.SampleCF(d); err == nil {
		t.Fatalf("SampleCF sized a design naming an unknown method at %d bytes, want an error", est.Bytes)
	}
	if _, ok := e.Cached(d); ok {
		t.Fatal("a failed SampleCF must not be cached")
	}
}

func TestEstimateUncompressedMatchesTruth(t *testing.T) {
	e := sampleEst(0.05)
	d := &index.Def{Table: "lineitem", KeyCols: []string{"l_partkey"}, IncludeCols: []string{"l_extendedprice"}}
	est, err := e.EstimateUncompressed(d)
	if err != nil {
		t.Fatal(err)
	}
	truth := buildTrue(t, d)
	if re := relErr(est.Bytes, truth.Bytes); re > 0.05 {
		t.Fatalf("stats-only uncompressed estimate err=%v", re)
	}
	if est.Rows != truth.Rows {
		t.Fatalf("rows=%d want %d", est.Rows, truth.Rows)
	}
}

func TestEstimateUncompressedPartial(t *testing.T) {
	e := sampleEst(0.2)
	d := &index.Def{Table: "lineitem", KeyCols: []string{"l_suppkey"},
		Where: []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(10)}}}
	est, err := e.EstimateUncompressed(d)
	if err != nil {
		t.Fatal(err)
	}
	truth := buildTrue(t, d)
	if re := relErr(est.Rows, truth.Rows); re > 0.2 {
		t.Fatalf("partial rows err=%v est=%d true=%d", re, est.Rows, truth.Rows)
	}
}

func TestPutExactZeroErrorZeroCost(t *testing.T) {
	e := sampleEst(0.05)
	d := (&index.Def{Table: "orders", KeyCols: []string{"o_custkey"}}).WithMethod(compress.Page)
	p := buildTrue(t, d)
	est := e.PutExact(p)
	if est.Std != 0 || est.Mean != 1 || est.Cost != 0 {
		t.Fatalf("exact estimate must be free and perfect: %+v", est)
	}
	got, ok := e.Cached(d)
	if !ok || got.Bytes != p.Bytes {
		t.Fatal("exact estimate must be cached")
	}
}

func TestDeduceColSet(t *testing.T) {
	e := sampleEst(0.1)
	ab := (&index.Def{Table: "lineitem", KeyCols: []string{"l_shipmode", "l_returnflag"}}).WithMethod(compress.Row)
	ba := (&index.Def{Table: "lineitem", KeyCols: []string{"l_returnflag", "l_shipmode"}}).WithMethod(compress.Row)
	known, err := e.SampleCF(ab)
	if err != nil {
		t.Fatal(err)
	}
	ded, err := e.DeduceColSet(ba, known)
	if err != nil {
		t.Fatal(err)
	}
	if ded.Bytes != known.Bytes {
		t.Fatal("ColSet must copy the size")
	}
	if ded.Cost != 0 {
		t.Fatal("deduction must be free")
	}
	if ded.Std <= known.Std {
		t.Fatal("deduction must not shrink error")
	}
	// Verify the underlying invariant against ground truth.
	ta, tb := buildTrue(t, ab), buildTrue(t, ba)
	if relErr(ta.Bytes, tb.Bytes) > 0.02 {
		t.Fatalf("ORD-IND colset invariant violated in truth: %d vs %d", ta.Bytes, tb.Bytes)
	}
}

func TestDeduceColSetRejectsOrdDep(t *testing.T) {
	e := sampleEst(0.1)
	ab := (&index.Def{Table: "lineitem", KeyCols: []string{"l_shipmode", "l_returnflag"}}).WithMethod(compress.Page)
	ba := (&index.Def{Table: "lineitem", KeyCols: []string{"l_returnflag", "l_shipmode"}}).WithMethod(compress.Page)
	known, err := e.SampleCF(ab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeduceColSet(ba, known); err == nil {
		t.Fatal("ColSet must reject ORD-DEP methods")
	}
}

func TestDeduceColExtOrdInd(t *testing.T) {
	e := sampleEst(0.1)
	target := (&index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_shipmode"}}).WithMethod(compress.Row)
	pa, err := e.SampleCF((&index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}}).WithMethod(compress.Row))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := e.SampleCF((&index.Def{Table: "lineitem", KeyCols: []string{"l_shipmode"}}).WithMethod(compress.Row))
	if err != nil {
		t.Fatal(err)
	}
	ded, err := e.DeduceColExt(target, []*Estimate{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	truth := buildTrue(t, target)
	if re := relErr(ded.Bytes, truth.Bytes); re > 0.25 {
		t.Fatalf("ColExt(ROW) err=%v est=%d true=%d", re, ded.Bytes, truth.Bytes)
	}
	if ded.Cost != 0 || ded.Source != SourceColExt {
		t.Fatalf("bad deduction metadata: %+v", ded)
	}
}

func TestDeduceColExtOrdDepFragmentation(t *testing.T) {
	e := sampleEst(0.1)
	// Leading high-cardinality column fragments the low-cardinality one:
	// the fragmentation correction must shrink the deduced savings for
	// l_shipmode when it follows l_partkey.
	target := (&index.Def{Table: "lineitem", KeyCols: []string{"l_partkey", "l_shipmode"}}).WithMethod(compress.Page)
	pa, err := e.SampleCF((&index.Def{Table: "lineitem", KeyCols: []string{"l_partkey"}}).WithMethod(compress.Page))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := e.SampleCF((&index.Def{Table: "lineitem", KeyCols: []string{"l_shipmode"}}).WithMethod(compress.Page))
	if err != nil {
		t.Fatal(err)
	}
	ded, err := e.DeduceColExt(target, []*Estimate{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	truth := buildTrue(t, target)
	if re := relErr(ded.Bytes, truth.Bytes); re > 0.35 {
		t.Fatalf("ColExt(PAGE) err=%v est=%d true=%d", re, ded.Bytes, truth.Bytes)
	}
}

func TestDeduceColExtValidatesPartition(t *testing.T) {
	e := sampleEst(0.1)
	target := (&index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_shipmode"}}).WithMethod(compress.Row)
	pa, err := e.SampleCF((&index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}}).WithMethod(compress.Row))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeduceColExt(target, []*Estimate{pa}); err == nil {
		t.Fatal("incomplete partition must be rejected")
	}
	wrongMethod, err := e.SampleCF((&index.Def{Table: "lineitem", KeyCols: []string{"l_shipmode"}}).WithMethod(compress.Page))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeduceColExt(target, []*Estimate{pa, wrongMethod}); err == nil {
		t.Fatal("method mismatch must be rejected")
	}
}

func TestErrorModelShapes(t *testing.T) {
	m := DefaultErrorModel()
	// Bias/σ must shrink as f grows.
	_, s1 := m.SampleError(compress.Page, 0.01)
	_, s5 := m.SampleError(compress.Page, 0.05)
	_, s100 := m.SampleError(compress.Page, 1.0)
	if !(s1 > s5 && s5 > s100) {
		t.Fatalf("σ must shrink with f: %v %v %v", s1, s5, s100)
	}
	if s100 != 0 {
		t.Fatal("full scan must be exact")
	}
	// LD (PAGE) noisier than NS (ROW), as in Figure 9.
	_, sRow := m.SampleError(compress.Row, 0.01)
	_, sPage := m.SampleError(compress.Page, 0.01)
	if sPage <= sRow {
		t.Fatal("PAGE must be noisier than ROW")
	}
	// Deduction error grows with a (Figure 10).
	_, d1 := m.ColExtError(compress.Row, 1)
	_, d4 := m.ColExtError(compress.Row, 4)
	if d4 <= d1 {
		t.Fatal("deduction σ must grow with a")
	}
}

func TestProbWithin(t *testing.T) {
	if p := ProbWithin(1, 0, 0.2); p != 1 {
		t.Fatalf("exact estimate within bounds: p=%v", p)
	}
	if p := ProbWithin(2, 0, 0.2); p != 0 {
		t.Fatalf("exact estimate out of bounds: p=%v", p)
	}
	p := ProbWithin(1, 0.1, 0.2)
	if p < 0.8 || p > 1 {
		t.Fatalf("p=%v want ~0.93", p)
	}
	// Wider tolerance, higher probability.
	if ProbWithin(1, 0.1, 0.5) <= p {
		t.Fatal("probability must grow with e")
	}
	// More noise, lower probability.
	if ProbWithin(1, 0.3, 0.2) >= p {
		t.Fatal("probability must shrink with σ")
	}
}

func TestComposeGoodmanVariance(t *testing.T) {
	m, s := compose(1, 0.1, 1, 0.2)
	if m != 1 {
		t.Fatalf("mean=%v want 1", m)
	}
	// V = (0.01+1)(0.04+1) - 1 = 0.0504
	want := math.Sqrt(0.0504)
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("std=%v want %v", s, want)
	}
	// Composition is monotone in inputs.
	_, s2 := compose(1, 0.1, 1, 0.3)
	if s2 <= s {
		t.Fatal("more input noise must compose to more output noise")
	}
}

func TestFitLogCoefficient(t *testing.T) {
	fs := []float64{0.01, 0.025, 0.05, 0.1}
	ys := make([]float64, len(fs))
	for i, f := range fs {
		ys[i] = 0.015 * -math.Log(f)
	}
	if c := FitLogCoefficient(fs, ys); math.Abs(c-0.015) > 1e-9 {
		t.Fatalf("fit=%v want 0.015", c)
	}
	if FitLogCoefficient(nil, nil) != 0 {
		t.Fatal("empty fit must be 0")
	}
}

func TestFitLinearCoefficient(t *testing.T) {
	as := []int{1, 2, 3, 4}
	ys := []float64{0.01, 0.02, 0.03, 0.04}
	if c := FitLinearCoefficient(as, ys); math.Abs(c-0.01) > 1e-9 {
		t.Fatalf("fit=%v want 0.01", c)
	}
}

func TestSampleCFOnMVIndex(t *testing.T) {
	e := sampleEst(0.1)
	mv := &index.MVDef{
		Name:    "mv_mode",
		Fact:    "lineitem",
		GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
	}
	d := (&index.Def{Table: "mv_mode", KeyCols: []string{"lineitem_l_shipmode"}, MV: mv}).WithMethod(compress.Row)
	est, err := e.SampleCF(d)
	if err != nil {
		t.Fatal(err)
	}
	truth := buildTrue(t, d)
	if est.Rows != truth.Rows {
		t.Fatalf("MV rows est=%d true=%d", est.Rows, truth.Rows)
	}
	if e.Mgr.Recorder().Timing().MVEstimate == 0 {
		t.Fatal("MV SampleCF time not recorded")
	}
}

func TestSampleCFPartialIndex(t *testing.T) {
	e := sampleEst(0.2)
	d := (&index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"},
		Where: []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(10)}}}).WithMethod(compress.Row)
	est, err := e.SampleCF(d)
	if err != nil {
		t.Fatal(err)
	}
	truth := buildTrue(t, d)
	if re := relErr(est.Bytes, truth.Bytes); re > 0.3 {
		t.Fatalf("partial SampleCF err=%v", re)
	}
	if e.Mgr.Recorder().Timing().PartialEstim == 0 {
		t.Fatal("partial SampleCF time not recorded")
	}
}
