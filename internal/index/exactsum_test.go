package index

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/storage"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// finishBytes runs rows through a fresh GroupAcc and returns its output
// encoded row by row, sorted: Finish emits groups in first-appearance order,
// which result shaping sorts away, so only the multiset of groups counts.
func finishBytes(t *testing.T, s *storage.Schema, rows []storage.Row, groupBy []workload.ColRef, aggs []workload.Aggregate) [][]byte {
	t.Helper()
	ga, err := NewGroupAcc(s, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		ga.Add(r)
	}
	out, got := ga.Finish()
	enc := make([][]byte, len(got))
	for i, r := range got {
		enc[i] = storage.EncodeRow(out, r, nil)
	}
	slices.SortFunc(enc, bytes.Compare)
	return enc
}

// TestGroupAccOrderIndependent feeds every built-in TPC-H and Sales
// aggregate statement's joined, filtered rows to GroupAcc in RID order and
// in seeded permutations: each permutation must finish to the same bytes.
// This is what lets the store stream a covering seek in key order and still
// match the oracle, which aggregates in RID order.
func TestGroupAccOrderIndependent(t *testing.T) {
	const perms = 4
	cases := []struct {
		db *catalog.Database
		wl *workload.Workload
	}{
		{tpch(), workloads.MustTPCH()},
		{datagen.NewSales(datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 7}), workloads.MustSales(7)},
	}
	checked := 0
	for _, c := range cases {
		for _, st := range c.wl.Statements {
			q := st.Query
			if q == nil || len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
				continue
			}
			schema, rows, err := JoinRows(c.db, q.Tables[0], q.Joins)
			if err != nil {
				t.Fatalf("%s: %v", st.Label, err)
			}
			if rows, err = FilterRows(schema, rows, q.Preds); err != nil {
				t.Fatalf("%s: %v", st.Label, err)
			}
			want := finishBytes(t, schema, rows, q.GroupBy, q.Aggs)
			rng := rand.New(rand.NewPCG(uint64(checked), 1))
			for p := range perms {
				shuffled := slices.Clone(rows)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				got := finishBytes(t, schema, shuffled, q.GroupBy, q.Aggs)
				if !slices.EqualFunc(got, want, bytes.Equal) {
					t.Fatalf("%s: permutation %d of %d rows finishes to different bytes", st.Label, p, len(rows))
				}
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("checked %d aggregate statements; the built-in workloads have more", checked)
	}
}

// sumCol is the one-column schema the accumulator tests aggregate over.
func sumCol(k storage.Kind) *storage.Schema {
	return storage.NewSchema(storage.Column{Name: "x", Kind: k, Nullable: true})
}

var xCol = workload.ColRef{Col: "x"}

// aggregate runs vals through GroupAcc with no grouping and returns the one
// output row: SUM(x), AVG(x), MIN(x), MAX(x).
func aggregate(t *testing.T, k storage.Kind, vals []storage.Value) storage.Row {
	t.Helper()
	ga, err := NewGroupAcc(sumCol(k), nil, []workload.Aggregate{
		{Func: workload.AggSum, Col: xCol}, {Func: workload.AggAvg, Col: xCol},
		{Func: workload.AggMin, Col: xCol}, {Func: workload.AggMax, Col: xCol},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		ga.Add(storage.Row{v})
	}
	_, rows := ga.Finish()
	return rows[0]
}

// bigSum is the math/big reference: the exact sum of finite inputs rounded
// to the nearest float64, or the one canonical Inf or NaN non-finite inputs
// make.
func bigSum(vals []storage.Value) float64 {
	var posInf, negInf, nan bool
	sum, x := new(big.Rat), new(big.Rat)
	for _, v := range vals {
		switch f := v.Float; {
		case v.Kind != storage.KindFloat:
			sum.Add(sum, x.SetInt64(v.Int))
		case math.IsNaN(f):
			nan = true
		case math.IsInf(f, 1):
			posInf = true
		case math.IsInf(f, -1):
			negInf = true
		default:
			sum.Add(sum, x.SetFloat64(f))
		}
	}
	switch {
	case nan || posInf && negInf:
		return math.NaN()
	case posInf:
		return math.Inf(1)
	case negInf:
		return math.Inf(-1)
	}
	f, _ := sum.Float64()
	return f
}

func floats(fs ...float64) []storage.Value {
	out := make([]storage.Value, len(fs))
	for i, f := range fs {
		out[i] = storage.FloatVal(f)
	}
	return out
}

// TestExactSumMatchesBig checks GroupAcc's SUM against a math/big reference
// in RID order and in seeded permutations, bit for bit, on inputs chosen to
// break a float64 running sum: cancellation across magnitudes, subnormals,
// values with bits below the fixed-point lane, integers near ±2^63, an
// overflowing intermediate and non-finite values. AVG must be that sum over
// the count.
func TestExactSumMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	wide := make([]float64, 300)
	for i := range wide {
		// Any finite float: random mantissa, sign and exponent.
		wide[i] = math.Float64frombits(rng.Uint64()&^(0x7FF<<52) | uint64(rng.IntN(0x7FF))<<52)
	}
	lane := make([]float64, 300)
	for i := range lane {
		// Finite floats whose every bit falls inside the fixed-point lane.
		lane[i] = math.Ldexp(float64(rng.Int64N(1<<53)-1<<52), rng.IntN(64)-64)
	}
	money := make([]float64, 500)
	for i := range money {
		money[i] = float64(rng.IntN(2_000_000)-1_000_000) / 100
	}
	ints := func(k storage.Kind, vs ...int64) []storage.Value {
		out := make([]storage.Value, len(vs))
		for i, v := range vs {
			out[i] = storage.Value{Kind: k, Int: v}
		}
		return out
	}
	cases := []struct {
		name string
		kind storage.Kind
		vals []storage.Value
	}{
		{"mixed magnitudes", storage.KindFloat, floats(1e20, 1, -1e20, 3.14159, 1e-20, -1e-10, 2.5e15, 0.1, 0.2, 0.3)},
		{"negatives", storage.KindFloat, floats(-0.1, -0.2, -0.3, 0.6, -1e-3)},
		{"money", storage.KindFloat, floats(money...)},
		{"lane bits", storage.KindFloat, floats(lane...)},
		{"ties to even", storage.KindFloat, floats(1<<53, 1, -(1 << 54), -3, 1<<54)},
		{"just past a tie", storage.KindFloat, floats(1<<53, 1, 0x1p-60)},
		{"below the lane", storage.KindFloat, floats(1e-5, 3e-7, 1, -2.5e-19, 7e-30)},
		{"subnormals", storage.KindFloat, floats(5e-324, 5e-324, -1e-320, 2.2250738585072014e-308, -2.225073858507201e-308)},
		{"cancelling overflow", storage.KindFloat, floats(1e308, 1e308, -1e308)},
		{"max floats", storage.KindFloat, floats(math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64, 1)},
		{"overflow", storage.KindFloat, floats(math.MaxFloat64, math.MaxFloat64)},
		{"signed zeros", storage.KindFloat, floats(math.Copysign(0, -1), 0, math.Copysign(0, -1))},
		{"any finite", storage.KindFloat, floats(wide...)},
		{"ints near ±2^63", storage.KindInt, ints(storage.KindInt, math.MaxInt64, math.MaxInt64, math.MinInt64, 1, -1, math.MinInt64+1)},
		{"int overflow", storage.KindInt, ints(storage.KindInt, math.MaxInt64, math.MaxInt64, 3)},
		{"dates", storage.KindDate, ints(storage.KindDate, 10957, -5, 20000, 1<<40)},
		{"+Inf", storage.KindFloat, floats(1, math.Inf(1), -1e308)},
		{"-Inf", storage.KindFloat, floats(math.Inf(-1), 2, math.Inf(-1))},
		{"Inf-Inf", storage.KindFloat, floats(math.Inf(1), 1, math.Inf(-1))},
		{"NaN", storage.KindFloat, floats(1, math.NaN(), 2)},
		{"NaN payloads", storage.KindFloat, floats(math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000005))},
	}
	for _, c := range cases {
		want := bigSum(c.vals)
		if c.name == "cancelling overflow" && want != 1e308 {
			t.Fatalf("reference sum %g, want 1e308", want)
		}
		vals := slices.Clone(c.vals)
		for p := range 5 {
			row := aggregate(t, c.kind, vals)
			if got := row[0].Float; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s, permutation %d: SUM = %v (%#x), math/big says %v (%#x)",
					c.name, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if avg := want / float64(len(vals)); math.Float64bits(row[1].Float) != math.Float64bits(avg) {
				t.Fatalf("%s, permutation %d: AVG = %v, want %v", c.name, p, row[1].Float, avg)
			}
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		}
	}
}

// TestGroupAccMinMaxTiesAreTotal feeds values that compare equal but differ
// in their bytes in both orders: MIN and MAX must pick the same winner.
func TestGroupAccMinMaxTiesAreTotal(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, in := range [][]float64{{negZero, 0}, {0, negZero}} {
		row := aggregate(t, storage.KindFloat, floats(in...))
		if math.Float64bits(row[2].Float) != math.Float64bits(negZero) || math.Float64bits(row[3].Float) != 0 {
			t.Fatalf("inputs %v: MIN %v MAX %v, want -0 and +0", in, row[2].Float, row[3].Float)
		}
	}
	a, b := math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0x7FF8000000000002)
	for _, in := range [][]float64{{a, b, 1}, {1, b, a}} {
		row := aggregate(t, storage.KindFloat, floats(in...))
		if math.Float64bits(row[2].Float) != math.Float64bits(a) || row[3].Float != 1 {
			t.Fatalf("inputs %v: MIN %#x MAX %v, want %#x and 1", in, math.Float64bits(row[2].Float), row[3].Float, math.Float64bits(a))
		}
	}
}

// TestGroupByFloatKeysAreExact groups on float keys: values closer than any
// fixed decimal scale are distinct groups, and -0 and +0 are one group keyed
// +0 whichever arrives first.
func TestGroupByFloatKeysAreExact(t *testing.T) {
	groups := func(vals []storage.Value) []storage.Row {
		ga, err := NewGroupAcc(sumCol(storage.KindFloat), []workload.ColRef{xCol}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			ga.Add(storage.Row{v})
		}
		_, rows := ga.Finish()
		return rows
	}
	if got := groups(floats(0.1000001, 0.1000004, 0.1000001)); len(got) != 2 {
		t.Fatalf("GROUP BY over {0.1000001, 0.1000004}: %d groups, want 2", len(got))
	}
	if got := groups(floats(1e13, 1e13+0.5)); len(got) != 2 {
		t.Fatalf("GROUP BY over {1e13, 1e13+0.5}: %d groups, want 2", len(got))
	}
	negZero := math.Copysign(0, -1)
	for _, in := range [][]float64{{negZero, 0}, {0, negZero}} {
		got := groups(floats(in...))
		if len(got) != 1 || math.Float64bits(got[0][0].Float) != 0 || got[0][1].Int != 2 {
			t.Fatalf("GROUP BY over %v: %v, want one +0 group of 2", in, got)
		}
	}
}
