package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cadb/internal/storage"
)

// refDecodeColumns is the semantics yardstick: a full decode followed by
// slot filtering, predicate evaluation and projection. A selective decode
// must return exactly these rows and slots.
func refDecodeColumns(t *testing.T, seg *storage.Segment, page int, spec *storage.DecodeSpec, slots []int) *storage.DecodedPage {
	t.Helper()
	return storage.FallbackDecodeColumns(seg.Schema, fullDecode(t, seg, page), spec, slots)
}

// decodePage is the one-shot decode of a page: a decoder compiled for the
// spec and used once, so the rows it returns stay the caller's.
func decodePage(seg *storage.Segment, page int, spec *storage.DecodeSpec, slots []int) (*storage.DecodedPage, error) {
	payload, release, err := seg.FetchPage(page, nil)
	if err != nil {
		return nil, err
	}
	defer release()
	return seg.Codec.NewDecoder(seg.Schema, spec).Decode(payload, seg.PageRows(page), slots)
}

// fullDecode reconstructs every row of a page: every ordinal, no predicates,
// no slot filter.
func fullDecode(t testing.TB, seg *storage.Segment, page int) []storage.Row {
	t.Helper()
	dp, err := decodePage(seg, page, &storage.DecodeSpec{Needed: seg.Schema.AllOrdinals()}, nil)
	if err != nil {
		t.Fatalf("full decode of page %d: %v", page, err)
	}
	return dp.Rows
}

// scanAll full-decodes every page of seg in order.
func scanAll(t testing.TB, seg *storage.Segment) []storage.Row {
	t.Helper()
	var out []storage.Row
	for p := 0; p < seg.NumPages(); p++ {
		out = append(out, fullDecode(t, seg, p)...)
	}
	return out
}

// assertSelectiveDecode drives one decoder over every page of the segment —
// the way a cursor does — and holds each page's result to the reference.
func assertSelectiveDecode(t *testing.T, seg *storage.Segment, spec *storage.DecodeSpec, slots []int, label string) {
	t.Helper()
	dec := seg.Codec.NewDecoder(seg.Schema, spec)
	for p := 0; p < seg.NumPages(); p++ {
		assertPageDecode(t, seg, dec, p, spec, slots, label)
	}
}

// assertPageDecode runs page p through dec and compares rows, slots and
// counters with the reference decode.
func assertPageDecode(t *testing.T, seg *storage.Segment, dec storage.PageDecoder, p int, spec *storage.DecodeSpec, slots []int, label string) *storage.DecodedPage {
	t.Helper()
	proj := make([]storage.Column, len(spec.Needed))
	for i, ci := range spec.Needed {
		proj[i] = seg.Schema.Columns[ci]
	}
	projSchema := storage.NewSchema(proj...)
	want := refDecodeColumns(t, seg, p, spec, slots)
	payload, release, err := seg.FetchPage(p, nil)
	if err != nil {
		t.Fatalf("%s: FetchPage(%d): %v", label, p, err)
	}
	defer release()
	got, err := dec.Decode(payload, seg.PageRows(p), slots)
	if err != nil {
		t.Fatalf("%s: Decode of page %d: %v", label, p, err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: page %d: got %d rows, want %d", label, p, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Slots[i] != want.Slots[i] {
			t.Fatalf("%s: page %d row %d: slot %d, want %d", label, p, i, got.Slots[i], want.Slots[i])
		}
		gb := storage.EncodeRow(projSchema, got.Rows[i], nil)
		wb := storage.EncodeRow(projSchema, want.Rows[i], nil)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: page %d slot %d: row mismatch\n got %v\nwant %v",
				label, p, got.Slots[i], got.Rows[i], want.Rows[i])
		}
	}
	// Selective decode must never materialize more than the full decode.
	if got.TuplesDecoded > want.TuplesDecoded || got.ColumnsDecoded > want.ColumnsDecoded {
		t.Fatalf("%s: page %d: decode counters (%d tuples, %d cols) exceed full decode (%d, %d)",
			label, p, got.TuplesDecoded, got.ColumnsDecoded, want.TuplesDecoded, want.ColumnsDecoded)
	}
	return got
}

// randomSpec builds a random decode spec over the schema: a non-empty
// ascending needed set, up to three predicates with bounds drawn from the
// data (plus occasional NULL bounds), and sometimes a slot filter.
func randomSpec(rng *rand.Rand, s *storage.Schema, rows []storage.Row) (*storage.DecodeSpec, []int) {
	spec := &storage.DecodeSpec{}
	for ci := range s.Columns {
		if rng.Float64() < 0.5 {
			spec.Needed = append(spec.Needed, ci)
		}
	}
	if len(spec.Needed) == 0 {
		spec.Needed = []int{rng.Intn(len(s.Columns))}
	}
	ops := []storage.PredOp{
		storage.PredEq, storage.PredNe, storage.PredLt, storage.PredLe,
		storage.PredGt, storage.PredGe, storage.PredBetween,
	}
	for np := rng.Intn(4); np > 0; np-- {
		ci := rng.Intn(len(s.Columns))
		kind := s.Columns[ci].Kind
		pick := func() storage.Value {
			if len(rows) == 0 || rng.Float64() < 0.1 {
				return storage.NullValue(kind)
			}
			return rows[rng.Intn(len(rows))][ci]
		}
		spec.Preds = append(spec.Preds, storage.ColPredicate{
			Col: ci,
			Op:  ops[rng.Intn(len(ops))],
			Lo:  pick().CoerceTo(kind),
			Hi:  pick().CoerceTo(kind),
		})
	}
	var slots []int
	if rng.Float64() < 0.3 {
		seen := map[int]bool{}
		for k := rng.Intn(20) + 1; k > 0; k-- {
			seen[rng.Intn(len(rows)+1)] = true
		}
		for sl := range seen {
			slots = append(slots, sl)
		}
		sort.Ints(slots)
	}
	return spec, slots
}

func TestDecodeColumnsMatchesFullDecode(t *testing.T) {
	s := codecSchema()
	rows := genCodecRows(900, 0.2, 42)
	rng := rand.New(rand.NewSource(7))
	for _, m := range codecMethods {
		seg, err := storage.BuildSegment(s, rows, Codec(m))
		if err != nil {
			t.Fatalf("%s: BuildSegment: %v", m, err)
		}
		for trial := 0; trial < 60; trial++ {
			spec, slots := randomSpec(rng, s, rows)
			assertSelectiveDecode(t, seg, spec, slots, fmt.Sprintf("%s trial %d", m, trial))
		}
	}
}

// TestDecodeColumnsPrefixShortcuts stresses the page-level common-prefix
// outcomes: a string column where every value shares a long prefix and an
// integer column that is constant per page, with bounds positioned on every
// side of the prefix.
func TestDecodeColumnsPrefixShortcuts(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "tag", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "grp", Kind: storage.KindInt},
		storage.Column{Name: "val", Kind: storage.KindFloat, Nullable: true},
	)
	rng := rand.New(rand.NewSource(3))
	rows := make([]storage.Row, 800)
	for i := range rows {
		tag := storage.StringVal(fmt.Sprintf("PREFIX-%03d", rng.Intn(40)))
		if rng.Float64() < 0.1 {
			tag = storage.NullValue(storage.KindString)
		}
		rows[i] = storage.Row{tag, storage.IntVal(777), storage.FloatVal(rng.NormFloat64())}
	}
	seg, err := storage.BuildSegment(s, rows, Codec(Page))
	if err != nil {
		t.Fatal(err)
	}
	bounds := []string{"", "A", "PREFIX-", "PREFIX-005", "PREFIX-9", "PREFIY", "Z", "PREFIX-005x"}
	ops := []storage.PredOp{
		storage.PredEq, storage.PredNe, storage.PredLt, storage.PredLe,
		storage.PredGt, storage.PredGe,
	}
	label := 0
	for _, lo := range bounds {
		for _, op := range ops {
			spec := &storage.DecodeSpec{
				Needed: []int{0, 2},
				Preds:  []storage.ColPredicate{{Col: 0, Op: op, Lo: storage.StringVal(lo)}},
			}
			assertSelectiveDecode(t, seg, spec, nil, fmt.Sprintf("tag case %d", label))
			label++
		}
		spec := &storage.DecodeSpec{
			Needed: []int{2},
			Preds: []storage.ColPredicate{{
				Col: 0, Op: storage.PredBetween,
				Lo: storage.StringVal(lo), Hi: storage.StringVal("PREFIX-9"),
			}},
		}
		assertSelectiveDecode(t, seg, spec, nil, fmt.Sprintf("tag between %d", label))
		label++
	}
	// Constant integer column: the page prefix is the full encoding, so
	// equality against a different value short-circuits the whole page.
	for _, iv := range []int64{777, 778, 0, -777} {
		for _, op := range []storage.PredOp{storage.PredEq, storage.PredNe} {
			spec := &storage.DecodeSpec{
				Needed: []int{0},
				Preds:  []storage.ColPredicate{{Col: 1, Op: op, Lo: storage.IntVal(iv)}},
			}
			assertSelectiveDecode(t, seg, spec, nil, fmt.Sprintf("grp %d op %d", iv, op))
		}
	}
}

// TestDecodeColumnsSkipsWork asserts the point of the refactor: a selective
// PAGE decode materializes strictly fewer tuples and columns than a full
// decode when the predicate is selective.
func TestDecodeColumnsSkipsWork(t *testing.T) {
	s := codecSchema()
	rows := genCodecRows(900, 0.1, 5)
	seg, err := storage.BuildSegment(s, rows, Codec(Page))
	if err != nil {
		t.Fatal(err)
	}
	spec := &storage.DecodeSpec{
		Needed: []int{1},
		Preds:  []storage.ColPredicate{{Col: 1, Op: storage.PredEq, Lo: storage.IntVal(7)}},
	}
	var sel, full storage.IOStats
	for p := 0; p < seg.NumPages(); p++ {
		got, err := decodePage(seg, p, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sel.TuplesDecoded += got.TuplesDecoded
		sel.ColumnsDecoded += got.ColumnsDecoded
		full.TuplesDecoded += int64(seg.PageRows(p))
		full.ColumnsDecoded += int64(len(s.Columns))
	}
	if sel.TuplesDecoded*2 >= full.TuplesDecoded {
		t.Fatalf("selective decode materialized %d of %d tuples — pushdown not effective", sel.TuplesDecoded, full.TuplesDecoded)
	}
	if sel.ColumnsDecoded >= full.ColumnsDecoded {
		t.Fatalf("selective decode touched %d of %d column payloads", sel.ColumnsDecoded, full.ColumnsDecoded)
	}
}

// TestDecoderReuseMatchesFallback holds a decoder's page-to-page reuse to the
// reference: one decoder per (segment, spec) is driven over every page, in a
// shuffled order, some pages whole and some through a slot filter, under a
// range predicate on the row-ordered id column that empties the pages outside
// it. Selection vectors, output positions, slabs, PAGE parses or GDICT
// verdicts left over from the previous page would show as a mismatch on the
// next.
func TestDecoderReuseMatchesFallback(t *testing.T) {
	s := codecSchema()
	type design struct {
		name  string
		codec storage.PageCodec
	}
	var designs []design
	for _, m := range codecMethods {
		designs = append(designs, design{m.String(), Codec(m)})
	}
	for _, d := range mixedDesigns {
		designs = append(designs, design{d.name, DesignCodec(d.def, d.over)})
	}
	rng := rand.New(rand.NewSource(31))
	for di, d := range designs {
		rows := genCodecRows(1500, 0.2, int64(100+di))
		seg, err := storage.BuildSegment(s, rows, d.codec)
		if err != nil {
			t.Fatalf("%s: BuildSegment: %v", d.name, err)
		}
		sizes := map[int]bool{}
		for p := 0; p < seg.NumPages(); p++ {
			sizes[seg.PageRows(p)] = true
		}
		if len(sizes) < 2 {
			t.Fatalf("%s: every page holds the same number of rows; the test wants them to differ", d.name)
		}
		emptied, filled := 0, 0
		for trial := 0; trial < 25; trial++ {
			spec, _ := randomSpec(rng, s, rows)
			lo, hi := rows[rng.Intn(len(rows))][0], rows[rng.Intn(len(rows))][0]
			if lo.Int > hi.Int {
				lo, hi = hi, lo
			}
			spec.Preds = append(spec.Preds, storage.ColPredicate{Col: 0, Op: storage.PredBetween, Lo: lo, Hi: hi})
			dec := seg.Codec.NewDecoder(s, spec)
			for _, p := range rng.Perm(seg.NumPages()) {
				var slots []int
				if rng.Intn(2) == 0 {
					for sl := rng.Intn(4); sl < seg.PageRows(p)+3; sl += 1 + rng.Intn(6) {
						slots = append(slots, sl)
					}
				}
				got := assertPageDecode(t, seg, dec, p, spec, slots, fmt.Sprintf("%s trial %d", d.name, trial))
				if len(got.Rows) == 0 {
					emptied++
				} else {
					filled++
				}
			}
		}
		if emptied == 0 || filled == 0 {
			t.Fatalf("%s: %d pages emptied, %d with survivors; the test wants both", d.name, emptied, filled)
		}
	}
}
