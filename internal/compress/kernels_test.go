package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cadb/internal/storage"
)

// ---------------------------------------------------------------------------
// Random schemas, rows and designs against the reference decode

// randomColumn draws a column of any kind: INT, FLOAT, DATE, CHAR(n) or
// VARCHAR.
func randomColumn(rng *rand.Rand, i int, nullable bool) storage.Column {
	c := storage.Column{Name: fmt.Sprintf("c%d", i), Nullable: nullable}
	switch rng.Intn(5) {
	case 0:
		c.Kind = storage.KindInt
	case 1:
		c.Kind = storage.KindFloat
	case 2:
		c.Kind = storage.KindDate
	case 3:
		c.Kind, c.FixedWidth = storage.KindString, 1+rng.Intn(12)
	default:
		c.Kind = storage.KindString
	}
	return c
}

// randomValue draws a non-NULL value of the column's kind. Most draws come
// from a small pool, so dictionaries, runs and page prefixes form; the rest
// are the kind's edge values or uniform. long allows one 0xFFFF-byte
// VARCHAR.
func randomValue(rng *rand.Rand, c storage.Column, long *bool) storage.Value {
	pooled := rng.Float64() < 0.6
	switch c.Kind {
	case storage.KindInt:
		edges := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 40, -(1 << 40)}
		switch {
		case pooled:
			return storage.IntVal(int64(rng.Intn(6)) - 2)
		case rng.Intn(3) == 0:
			return storage.IntVal(edges[rng.Intn(len(edges))])
		}
		return storage.IntVal(rng.Int63() - rng.Int63())
	case storage.KindFloat:
		edges := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5}
		switch {
		case pooled:
			return storage.FloatVal(float64(rng.Intn(5)) / 4)
		case rng.Intn(3) == 0:
			return storage.FloatVal(edges[rng.Intn(len(edges))])
		}
		return storage.FloatVal(rng.NormFloat64() * 1e6)
	case storage.KindDate:
		edges := []int64{0, -1, math.MinInt32, math.MaxInt32}
		switch {
		case pooled:
			return storage.DateVal(int64(9000 + rng.Intn(4)))
		case rng.Intn(3) == 0:
			return storage.DateVal(edges[rng.Intn(len(edges))])
		}
		return storage.DateVal(int64(rng.Intn(200000)) - 100000)
	}
	if c.FixedWidth > 0 {
		pool := []string{"", " ", "A", "AB ", "AIR", "TRUCK  "}
		if pooled {
			return storage.StringVal(pool[rng.Intn(len(pool))])
		}
		b := make([]byte, rng.Intn(c.FixedWidth+1))
		for i := range b {
			b[i] = "xyz  "[rng.Intn(5)]
		}
		return storage.StringVal(string(b))
	}
	switch {
	case pooled:
		return storage.StringVal([]string{"", "SHIP", "SHIPPED", "SHIPPING"}[rng.Intn(4)])
	case *long && rng.Intn(50) == 0:
		*long = false
		return storage.StringVal(strings.Repeat("L", 0xFFFF))
	case rng.Intn(4) == 0: // past the one-byte length prefix
		return storage.StringVal(strings.Repeat("m", 128+rng.Intn(300)))
	}
	return storage.StringVal(strings.Repeat("v", rng.Intn(40)))
}

// normalized is a value as a decode returns it: CHAR(n) truncated to n bytes
// with its trailing blanks stripped.
func normalized(c storage.Column, v storage.Value) storage.Value {
	if c.Kind == storage.KindString && c.FixedWidth > 0 && !v.Null {
		s := v.Str[:min(len(v.Str), c.FixedWidth)]
		v.Str = strings.TrimRight(s, " ")
	}
	return v
}

// sameValue is exact equality: kind, NULL, integer, float bits and bytes.
func sameValue(a, b storage.Value) bool {
	return a.Kind == b.Kind && a.Null == b.Null && a.Int == b.Int &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float) && a.Str == b.Str
}

// TestDecodeRandomSchemasMatchReference is the decoder's property over
// random schemas of 1–8 columns of every kind (NaN, ±0, ±Inf, the int64
// extremes, CHAR(n) with trailing blanks, empty, 2-byte-prefixed and
// 0xFFFF-byte VARCHARs), NULL fractions of 0, 25, 90 and 100 %, and uniform
// and mixed designs over all five methods. A full decode returns the rows
// built (normalized), and every random spec, predicate set and slot list
// decodes exactly as FallbackDecodeColumns over them.
func TestDecodeRandomSchemasMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	schemas := 6
	if testing.Short() {
		schemas = 3
	}
	for _, nullFrac := range []float64{0, 0.25, 0.9, 1} {
		for si := 0; si < schemas; si++ {
			cols := make([]storage.Column, 1+rng.Intn(8))
			for i := range cols {
				cols[i] = randomColumn(rng, i, nullFrac > 0)
			}
			s := storage.NewSchema(cols...)
			long := true
			rows := make([]storage.Row, 50+rng.Intn(400))
			for i := range rows {
				rows[i] = make(storage.Row, len(cols))
				for ci, c := range cols {
					rows[i][ci] = storage.NullValue(c.Kind)
					if rng.Float64() >= nullFrac {
						rows[i][ci] = randomValue(rng, c, &long)
					}
				}
			}
			designs := randomDesigns(s, rng, 2)
			for _, d := range designs {
				label := fmt.Sprintf("nulls %.0f%% schema %d %v design %s", 100*nullFrac, si, cols, d.name)
				seg, err := storage.BuildSegment(s, rows, DesignCodec(d.def, d.over))
				if err != nil {
					t.Fatalf("%s: BuildSegment: %v", label, err)
				}
				got := scanAll(t, seg)
				if len(got) != len(rows) {
					t.Fatalf("%s: %d rows decoded, %d built", label, len(got), len(rows))
				}
				for i, r := range rows {
					for ci, c := range cols {
						if want := normalized(c, r[ci]); !sameValue(got[i][ci], want) {
							t.Fatalf("%s: row %d column %d: decoded %#v, built %#v", label, i, ci, got[i][ci], want)
						}
					}
				}
				for trial := 0; trial < 8; trial++ {
					spec, slots := randomSpec(rng, s, rows)
					assertSelectiveDecode(t, seg, spec, slots, fmt.Sprintf("%s trial %d", label, trial))
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Hostile section bytes

// hostileSection is a column section that lies about its bytes in one way a
// kernel must reject.
type hostileSection struct {
	name   string
	method Method // the section format it is written in
	body   []byte
	// lazy: the kernel reads the section only up to the last selected row,
	// and the fault sits after it when only early rows are selected, so
	// those rows decode without error.
	lazy bool
}

// fillerValue is a valid non-NULL value of the column's kind.
func fillerValue(c storage.Column) storage.Value {
	switch c.Kind {
	case storage.KindInt:
		return storage.IntVal(300)
	case storage.KindFloat:
		return storage.FloatVal(1.5)
	case storage.KindDate:
		return storage.DateVal(9000)
	}
	return storage.StringVal("ab")
}

// hostileSections builds the hostile sections of an n-row page of column c
// (n > 1, every row non-NULL), each well-formed up to its last row:
//   - a NONE section one value short;
//   - a ROW length prefix running past its section (also as a plain-elected
//     GDICT section);
//   - a numeric ROW value longer than 8 bytes;
//   - a GDICT code equal to the dictionary size dictLen (< 256);
//   - an RLE run past the page's row count;
//   - a PAGE code equal to its local dictionary count.
func hostileSections(c storage.Column, n, dictLen int) []hostileSection {
	v := fillerValue(c)
	enc := valueBytes(c, v, nil)
	bitmap := make([]byte, (n+7)/8)

	none := slices.Clone(bitmap)
	row := slices.Clone(bitmap)
	for j := 0; j < n-1; j++ {
		none = storage.AppendValue(none, c, v)
		row = append(appendLenPrefix(row, len(enc)), enc...)
	}
	rowPast := append(append(slices.Clone(row), byte(len(enc)+1)), enc...)
	varchar := c.Kind == storage.KindString && c.FixedWidth == 0
	out := []hostileSection{
		{"NONE one value short", None, none, varchar},
		{"ROW length prefix past its section", Row, rowPast, true},
		{"plain GDICT length prefix past its section", GlobalDict, append([]byte{gdictPlain}, rowPast...), true},
	}
	if c.Kind != storage.KindString {
		wide := append(slices.Clone(row), 9, 1, 2, 3, 4, 5, 6, 7, 8, 9)
		out = append(out, hostileSection{"ROW numeric value of 9 bytes", Row, wide, true})
	}

	gd := append([]byte{gdictCoded, 1}, bitmap...)
	gd = append(gd, make([]byte, n-1)...)
	out = append(out, hostileSection{"GDICT code past the dictionary", GlobalDict, append(gd, byte(dictLen)), true})

	// The one run starts at row 0, so no selection gets past it.
	run := []byte{byte((n + 1) >> 8), byte(n + 1)}
	out = append(out, hostileSection{"RLE run past the page", RLE, append(appendLenPrefix(run, len(enc)), enc...), false})

	pg := appendLenPrefix(slices.Clone(bitmap), 0) // no common prefix
	pg = append(pg, 0, 1)                          // one local dictionary entry
	pg = append(appendLenPrefix(pg, len(enc)), enc...)
	coded := len(pg)
	pg = append(pg, bitmap...)
	for j := 0; j < n; j++ {
		pg[coded+j/8] |= 1 << (uint(j) % 8)
	}
	pg = append(pg, make([]byte, n-1)...)
	out = append(out, hostileSection{"PAGE code past the local dictionary", Page, append(pg, 1), false})
	return out
}

// splitPage splits a page payload into its row count and column sections.
func splitPage(t testing.TB, payload []byte) (int, [][]byte) {
	n := int(binary.BigEndian.Uint16(payload))
	payload = payload[2:]
	var sections [][]byte
	for len(payload) > 0 {
		ln, adv, err := readLenPrefix(payload)
		if err != nil || len(payload) < adv+ln {
			t.Fatalf("splitPage: bad section frame")
		}
		sections = append(sections, payload[adv:adv+ln])
		payload = payload[adv+ln:]
	}
	return n, sections
}

// joinPage frames sections into a page payload.
func joinPage(n int, sections [][]byte) []byte {
	out := []byte{byte(n >> 8), byte(n)}
	for _, s := range sections {
		out = append(appendLenPrefix(out, len(s)), s...)
	}
	return out
}

// TestKernelsRejectHostileSections hands every kernel — each method under
// each column kind, through the filter path and the materialize path — a
// section that lies about its bytes. Each must be an error, never a panic or
// a write past the slab, and the same decoder must then decode an intact page
// exactly as the reference does.
func TestKernelsRejectHostileSections(t *testing.T) {
	kinds := []storage.Column{
		{Name: "v", Kind: storage.KindInt},
		{Name: "v", Kind: storage.KindDate},
		{Name: "v", Kind: storage.KindFloat},
		{Name: "v", Kind: storage.KindString, FixedWidth: 6},
		{Name: "v", Kind: storage.KindString},
	}
	const n = 11
	for _, c := range kinds {
		s := storage.NewSchema(c)
		pool := []storage.Value{fillerValue(c)}
		switch c.Kind {
		case storage.KindString:
			pool = append(pool, storage.StringVal("abc"), storage.StringVal("zz"))
		case storage.KindFloat:
			pool = append(pool, storage.FloatVal(-2), storage.FloatVal(7.25))
		default:
			pool = append(pool, storage.Value{Kind: c.Kind, Int: -4}, storage.Value{Kind: c.Kind, Int: 77})
		}
		rows := make([]storage.Row, 400)
		for i := range rows {
			rows[i] = storage.Row{pool[(i/7)%len(pool)]}
		}
		segs := map[Method]*storage.Segment{}
		for _, m := range codecMethods {
			seg, err := storage.BuildSegment(s, rows, Codec(m))
			if err != nil {
				t.Fatalf("%v %s: BuildSegment: %v", c.Kind, m, err)
			}
			segs[m] = seg
		}
		dictLen := len(segs[GlobalDict].Codec.(*columnCodec).dicts[0].values)
		if dictLen != len(pool) {
			t.Fatalf("%v: GDICT dictionary of %d entries, want %d (coded, not plain)", c.Kind, dictLen, len(pool))
		}
		specs := map[string]*storage.DecodeSpec{
			"filter":      {Preds: []storage.ColPredicate{{Col: 0, Op: storage.PredNe, Lo: storage.NullValue(c.Kind)}}},
			"materialize": {Needed: []int{0}},
		}
		for _, h := range hostileSections(c, n, dictLen) {
			seg := segs[h.method]
			payload := joinPage(n, [][]byte{h.body})
			for path, spec := range specs {
				label := fmt.Sprintf("%v %s via %s", c.Kind, h.name, path)
				dec := seg.Codec.NewDecoder(s, spec)
				if got, err := dec.Decode(payload, n, nil); err == nil {
					t.Fatalf("%s: decoded %d rows, want an error", label, len(got.Rows))
				}
				assertEarlyRows(t, dec, payload, n, h.lazy, fillerValue(c), label)
				assertPageDecode(t, seg, dec, 0, spec, nil, label)
			}
		}
	}
}

// assertEarlyRows decodes a hostile page with slots that select only rows
// before its fault. A lazy kernel must return exactly those rows (every
// selected value is want, and the predicates pass it); any other must still
// reject the page.
func assertEarlyRows(t *testing.T, dec storage.PageDecoder, payload []byte, n int, lazy bool, want storage.Value, label string) {
	t.Helper()
	slots := []int{2, 0, 1}
	got, err := dec.Decode(payload, n, slots)
	if !lazy {
		if err == nil {
			t.Fatalf("%s, rows 0-2 selected: decoded %d rows, want an error", label, len(got.Rows))
		}
		return
	}
	if err != nil {
		t.Fatalf("%s, rows 0-2 selected: %v, want the rows before the fault", label, err)
	}
	if !slices.Equal(got.Slots, []int{0, 1, 2}) {
		t.Fatalf("%s, rows 0-2 selected: slots %v, want [0 1 2]", label, got.Slots)
	}
	for i, r := range got.Rows {
		for _, v := range r {
			if v.CompareTotal(want) != 0 || v.Null != want.Null {
				t.Fatalf("%s, rows 0-2 selected: row %d holds %v, want %v", label, i, v, want)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Allocations

// decodeAllocs is the allocations of one warm decode of page p, and the
// non-NULL values it returns.
func decodeAllocs(t *testing.T, seg *storage.Segment, p int, spec *storage.DecodeSpec) (float64, int) {
	t.Helper()
	payload, release, err := seg.FetchPage(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	dec := seg.Codec.NewDecoder(seg.Schema, spec)
	var got *storage.DecodedPage
	allocs := testing.AllocsPerRun(20, func() {
		if got, err = dec.Decode(payload, seg.PageRows(p), nil); err != nil {
			t.Fatal(err)
		}
	})
	nonNull := 0
	for _, r := range got.Rows {
		for _, v := range r {
			if !v.Null {
				nonNull++
			}
		}
	}
	if nonNull == 0 {
		t.Fatalf("page %d returned no value; the budget wants some", p)
	}
	return allocs, nonNull
}

// TestDecodeAllocationBudget holds a warm decoder to the header's budget:
// numeric needed and predicated columns allocate nothing under every method
// and a mixed design; a NONE, ROW, PAGE or RLE string column allocates at most
// one object per returned non-NULL value, its predicates tested without any;
// a dictionary-coded GDICT string column allocates nothing.
func TestDecodeAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	numeric := storage.NewSchema(
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "qty", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "price", Kind: storage.KindFloat, Nullable: true},
		storage.Column{Name: "ship", Kind: storage.KindDate, Nullable: true},
	)
	nrows := make([]storage.Row, 3000)
	for i := range nrows {
		nrows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.IntVal(int64(rng.Intn(20))),
			storage.FloatVal(float64(rng.Intn(40)) / 4),
			storage.DateVal(int64(9000 + rng.Intn(30))),
		}
		if i%9 == 0 {
			nrows[i][1+i%3] = storage.NullValue(numeric.Columns[1+i%3].Kind)
		}
	}
	nspec := &storage.DecodeSpec{
		Needed: []int{0, 1, 2, 3},
		Preds: []storage.ColPredicate{
			{Col: 1, Op: storage.PredGe, Lo: storage.IntVal(3)},
			{Col: 2, Op: storage.PredLt, Lo: storage.FloatVal(8)},
			{Col: 3, Op: storage.PredBetween, Lo: storage.DateVal(9002), Hi: storage.DateVal(9025)},
		},
	}
	designs := []packerDesign{{name: "mixed", def: Page, over: map[string]Method{"qty": GlobalDict, "price": Row, "ship": RLE, "id": None}}}
	for _, m := range codecMethods {
		designs = append(designs, packerDesign{name: m.String(), def: m})
	}
	for _, d := range designs {
		seg, err := storage.BuildSegment(numeric, nrows, DesignCodec(d.def, d.over))
		if err != nil {
			t.Fatal(err)
		}
		if allocs, _ := decodeAllocs(t, seg, 1, nspec); allocs != 0 {
			t.Errorf("numeric %s: %.1f allocations per decode, want 0", d.name, allocs)
		}
	}

	strs := storage.NewSchema(
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "mode", Kind: storage.KindString, FixedWidth: 10, Nullable: true},
		storage.Column{Name: "comment", Kind: storage.KindString, Nullable: true},
	)
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK"}
	comments := []string{"quickly final deposits sleep", "carefully regular requests haggle along the", "ironic"}
	srows := make([]storage.Row, 3000)
	for i := range srows {
		srows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.StringVal(modes[rng.Intn(len(modes))]),
			storage.StringVal(comments[rng.Intn(len(comments))]),
		}
		if i%7 == 0 {
			srows[i][1+i%2] = storage.NullValue(storage.KindString)
		}
	}
	sspec := &storage.DecodeSpec{
		Needed: []int{1, 2},
		Preds: []storage.ColPredicate{
			{Col: 1, Op: storage.PredGe, Lo: storage.StringVal("B")},
			{Col: 2, Op: storage.PredNe, Lo: storage.StringVal("ironic")},
		},
	}
	for _, m := range codecMethods {
		seg, err := storage.BuildSegment(strs, srows, Codec(m))
		if err != nil {
			t.Fatal(err)
		}
		allocs, returned := decodeAllocs(t, seg, 1, sspec)
		budget := float64(returned)
		if m == GlobalDict {
			if dicts := seg.Codec.(*columnCodec).dicts; dicts[1].plain || dicts[2].plain {
				t.Fatal("GDICT: a string dictionary was plain-elected; the budget wants both coded")
			}
			budget = 0
		}
		if allocs > budget {
			t.Errorf("strings %s: %.1f allocations per decode returning %d non-NULL values, budget %.0f", m, allocs, returned, budget)
		}
	}
}
