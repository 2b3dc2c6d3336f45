package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cadb/internal/datagen"
	"cadb/internal/storage"
)

// referencePack is the packer the codec used before the incremental
// sizer: grow the page by doubling until a trial encode
// overflows, then binary search the largest fitting row count — O(log n)
// full encodes per page. It is kept as the differential yardstick: the
// one-pass packer must cut the same pages and produce the same bytes. Its
// trial encodes are the reference encoder below, which shares no section
// writer with the packer.
func referencePack(r *refEncoder, rows []storage.Row) ([]storage.EncodedPage, error) {
	encode := func(rows []storage.Row) ([]byte, error) { return r.encodeGroup(rows) }
	slotBytes := func(k int) int {
		if r.cc.slotted {
			return k * storage.SlotSize
		}
		return 0
	}
	var out []storage.EncodedPage
	n := len(rows)
	fits := func(payload []byte, k int) bool {
		return len(payload)+slotBytes(k) <= storage.UsablePageBytes
	}
	start := 0
	for start < n {
		payload, err := encode(rows[start : start+1])
		if err != nil {
			return nil, err
		}
		if !fits(payload, 1) {
			out = append(out, storage.EncodedPage{
				Payload:        payload,
				Rows:           1,
				AccountedBytes: len(payload) + slotBytes(1),
			})
			start++
			continue
		}
		good, goodPayload := 1, payload
		bad := -1
		for k := 2; start+good < n && bad < 0; k *= 2 {
			try := k
			if start+try > n {
				try = n - start
			}
			pl, err := encode(rows[start : start+try])
			if err != nil {
				return nil, err
			}
			if fits(pl, try) {
				good, goodPayload = try, pl
				if start+try == n {
					break
				}
			} else {
				bad = try
			}
		}
		for bad >= 0 && bad-good > 1 {
			mid := (good + bad) / 2
			pl, err := encode(rows[start : start+mid])
			if err != nil {
				return nil, err
			}
			if fits(pl, mid) {
				good, goodPayload = mid, pl
			} else {
				bad = mid
			}
		}
		out = append(out, storage.EncodedPage{
			Payload:        goodPayload,
			Rows:           good,
			AccountedBytes: len(goodPayload) + slotBytes(good),
		})
		start += good
	}
	return out, nil
}

// refEncoder is the reference page encoder: every section writer encodes
// each value itself (valueBytes per value, a dictionary lookup per GDICT
// value), the way the codec wrote pages before values were encoded once per
// page. It reads the codec's method vector and dictionaries and nothing of
// the packer.
type refEncoder struct {
	cc     *columnCodec
	s      *storage.Schema
	passes int
}

// encodeGroup encodes one page: the row count, then each column's
// length-framed section.
func (r *refEncoder) encodeGroup(rows []storage.Row) ([]byte, error) {
	r.passes++
	if len(rows) > maxPageRows {
		return nil, fmt.Errorf("compress: page group of %d rows", len(rows))
	}
	payload := []byte{byte(len(rows) >> 8), byte(len(rows))}
	for ci, c := range r.s.Columns {
		var dst []byte
		switch m := r.cc.resolved[ci]; m {
		case None:
			dst = refNoneSection(c, rows, ci)
		case Row:
			dst = refRowSection(nil, c, rows, ci)
		case Page:
			dst = refPageSection(c, rows, ci)
		case GlobalDict:
			dst = refGDictSection(r.cc.dicts[ci], c, rows, ci)
		case RLE:
			dst = refRLESection(c, rows, ci)
		default:
			return nil, fmt.Errorf("compress: bad column method %d", m)
		}
		payload = append(appendLenPrefix(payload, len(dst)), dst...)
	}
	return payload, nil
}

// nullBitmap is a section's null bitmap over the rows' column ci.
func nullBitmap(rows []storage.Row, ci int) []byte {
	bm := make([]byte, (len(rows)+7)/8)
	for j, r := range rows {
		if r[ci].Null {
			bm[j/8] |= 1 << (uint(j) % 8)
		}
	}
	return bm
}

func refNoneSection(c storage.Column, rows []storage.Row, ci int) []byte {
	dst := nullBitmap(rows, ci)
	for _, r := range rows {
		dst = storage.AppendValue(dst, c, r[ci])
	}
	return dst
}

func refRowSection(dst []byte, c storage.Column, rows []storage.Row, ci int) []byte {
	dst = append(dst, nullBitmap(rows, ci)...)
	for _, r := range rows {
		if !r[ci].Null {
			v := valueBytes(c, r[ci], nil)
			dst = append(appendLenPrefix(dst, len(v)), v...)
		}
	}
	return dst
}

func refGDictSection(st *gdictState, c storage.Column, rows []storage.Row, ci int) []byte {
	if st.plain {
		return refRowSection([]byte{gdictPlain}, c, rows, ci)
	}
	var codes []int
	maxCode := 0
	for _, r := range rows {
		if !r[ci].Null {
			code := st.register(c.Kind, valueBytes(c, r[ci], nil))
			codes = append(codes, code)
			maxCode = max(maxCode, code)
		}
	}
	width := gdictCodeWidth(maxCode)
	dst := append([]byte{gdictCoded, byte(width)}, nullBitmap(rows, ci)...)
	for _, code := range codes {
		for b := width - 1; b >= 0; b-- {
			dst = append(dst, byte(code>>(8*b)))
		}
	}
	return dst
}

func refRLESection(c storage.Column, rows []storage.Row, ci int) []byte {
	var dst []byte
	for j := 0; j < len(rows); {
		v := rows[j][ci]
		enc := valueBytes(c, v, nil)
		end := j + 1
		for end < len(rows) && end-j < rleMaxRun && rows[end][ci].Null == v.Null &&
			(v.Null || string(valueBytes(c, rows[end][ci], nil)) == string(enc)) {
			end++
		}
		hdr := uint16(end - j)
		if v.Null {
			hdr |= 0x8000
		}
		dst = append(dst, byte(hdr>>8), byte(hdr))
		if !v.Null {
			dst = append(appendLenPrefix(dst, len(enc)), enc...)
		}
		j = end
	}
	return dst
}

func refPageSection(c storage.Column, rows []storage.Row, ci int) []byte {
	dst := nullBitmap(rows, ci)
	vals := make([][]byte, len(rows))
	var prefix []byte
	seen := false
	for j, r := range rows {
		if r[ci].Null {
			continue
		}
		vals[j] = valueBytes(c, r[ci], nil)
		if !seen {
			prefix, seen = vals[j], true
		} else {
			prefix = prefix[:commonPrefixLen(prefix, vals[j])]
		}
	}
	dst = append(appendLenPrefix(dst, len(prefix)), prefix...)
	count := make(map[string]int)
	var order []string // distinct suffixes, first occurrence first
	for j, r := range rows {
		if !r[ci].Null {
			sfx := string(vals[j][len(prefix):])
			if count[sfx] == 0 {
				order = append(order, sfx)
			}
			count[sfx]++
		}
	}
	code := make(map[string]int)
	for _, sfx := range order {
		if count[sfx] >= 2 {
			code[sfx] = len(code)
		}
	}
	dst = append(dst, byte(len(code)>>8), byte(len(code)))
	for _, sfx := range order {
		if count[sfx] >= 2 {
			dst = append(appendLenPrefix(dst, len(sfx)), sfx...)
		}
	}
	dictAt := len(dst)
	dst = append(dst, make([]byte, (len(rows)+7)/8)...)
	for j, r := range rows {
		if r[ci].Null {
			continue
		}
		sfx := string(vals[j][len(prefix):])
		if k, ok := code[sfx]; ok {
			dst[dictAt+j/8] |= 1 << (uint(j) % 8)
			if len(code) > 255 {
				dst = append(dst, byte(k>>8))
			}
			dst = append(dst, byte(k))
		} else {
			dst = append(appendLenPrefix(dst, len(sfx)), sfx...)
		}
	}
	return dst
}

// packerDesign is one design to build a packer for.
type packerDesign struct {
	name string
	def  Method
	over map[string]Method
}

// packer is what EncodeRows packs with: a fresh codec after its pre-pass.
func (d packerDesign) packer(s *storage.Schema, rows []storage.Row) (*packer, *columnCodec) {
	cc := newColumnCodec(d.def, d.over)
	var codes [][]int32
	if len(rows) > 0 {
		codes = cc.prepare(s, rows)
	}
	return cc.packer(s, rows, codes), cc
}

// reference is the reference encoder over a fresh codec after its pre-pass.
func (d packerDesign) reference(s *storage.Schema, rows []storage.Row) *refEncoder {
	_, cc := d.packer(s, rows)
	return &refEncoder{cc: cc, s: s}
}

// randomDesigns covers every uniform method plus seeded random per-column
// vectors over the schema.
func randomDesigns(s *storage.Schema, rng *rand.Rand, mixed int) []packerDesign {
	var out []packerDesign
	for _, m := range codecMethods {
		out = append(out, packerDesign{name: m.String(), def: m})
	}
	for i := 0; i < mixed; i++ {
		over := make(map[string]Method)
		for _, c := range s.Columns {
			over[c.Name] = codecMethods[rng.Intn(len(codecMethods))]
		}
		out = append(out, packerDesign{name: fmt.Sprintf("mixed%d%v", i, over), def: Row, over: over})
	}
	return out
}

func assertSamePages(t *testing.T, label string, got, want []storage.EncodedPage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages, reference packs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Rows != want[i].Rows || got[i].AccountedBytes != want[i].AccountedBytes {
			t.Fatalf("%s: page %d holds %d rows / %d bytes, reference %d / %d",
				label, i, got[i].Rows, got[i].AccountedBytes, want[i].Rows, want[i].AccountedBytes)
		}
		if !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("%s: page %d payload differs from the reference", label, i)
		}
	}
}

// TestPackerMatchesReference is the differential contract of the one-pass
// packer: over schemas × designs × input shapes it cuts exactly the pages of
// the doubling/binary-search reference, byte for byte.
func TestPackerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type input struct {
		name string
		s    *storage.Schema
		rows []storage.Row
	}
	cs := codecSchema()
	oversized := genCodecRows(400, 0.1, 5)
	for _, i := range []int{0, 17, 18, 250, 399} {
		oversized[i] = append(storage.Row(nil), oversized[i]...)
		oversized[i][5] = storage.StringVal(strings.Repeat("wide", 2500+i))
	}
	allEqual := make([]storage.Row, 9000)
	for i := range allEqual {
		allEqual[i] = storage.Row{storage.IntVal(7), storage.IntVal(3), storage.FloatVal(1.5), storage.DateVal(9000),
			storage.StringVal("AIR"), storage.StringVal("same comment every time")}
	}
	// Long shared prefixes straddle the 1- and 2-byte length descriptors, and
	// the late outliers shrink a page's prefix after most rows are in.
	ps := storage.NewSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "path", Kind: storage.KindString, Nullable: true},
	)
	var prefixed []storage.Row
	for i := 0; i < 1500; i++ {
		v := storage.StringVal(strings.Repeat("p", 120+i%20) + fmt.Sprint(i%37))
		switch {
		case i%211 == 210:
			v = storage.StringVal("q" + fmt.Sprint(i))
		case i%13 == 0:
			v = storage.NullValue(storage.KindString)
		}
		prefixed = append(prefixed, storage.Row{storage.IntVal(int64(i / 3)), v})
	}
	// One narrow column packs thousands of rows a page, so its local
	// dictionary outgrows one-byte codes.
	ds := storage.NewSchema(storage.Column{Name: "v", Kind: storage.KindInt})
	wideDict := make([]storage.Row, 20000)
	for i := range wideDict {
		wideDict[i] = storage.Row{storage.IntVal(int64(rng.Intn(600)))}
	}
	fs, fact := buildFactLike(5000)
	inputs := []input{
		{"codec", cs, genCodecRows(3000, 0.25, 11)},
		{"no-nulls", cs, genCodecRows(1200, 0, 12)},
		{"null-heavy", cs, genCodecRows(4000, 0.9, 13)},
		{"single-row", cs, genCodecRows(1, 0.2, 14)},
		{"two-rows", cs, genCodecRows(2, 0.2, 15)},
		{"empty", cs, nil},
		{"oversized", cs, oversized},
		{"all-equal", cs, allEqual},
		{"prefixed", ps, prefixed},
		{"wide-dict", ds, wideDict},
		{"fact", fs, fact},
		{"fact-sorted", fs, sortRows(fact, fs.ColIndex("mode"))},
		{"ab", schemaAB(), genRows(6000, 40, 7, 3)},
	}
	for _, in := range inputs {
		for _, d := range randomDesigns(in.s, rng, 6) {
			label := in.name + "/" + d.name
			p, _ := d.packer(in.s, in.rows)
			got, err := p.pack()
			if err != nil {
				t.Fatalf("%s: pack: %v", label, err)
			}
			want, err := referencePack(d.reference(in.s, in.rows), in.rows)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			assertSamePages(t, label, got, want)
		}
	}
}

// lineitemByShipdate is the benchmark's clustered fact structure: TPC-H
// lineitem in l_shipdate order.
func lineitemByShipdate(rows int) (*storage.Schema, []storage.Row) {
	t := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: rows, Seed: 1}).MustTable("lineitem")
	return t.Schema, sortRows(t.Rows, t.Schema.ColIndex("l_shipdate"))
}

// TestPackerEncodeBudget holds the packer to its cost: at most three
// page-sized walks of the rows (sizing and encoding alike) per page, where
// the reference spends one per trial; each value encoded into its column's
// page arena once, plus once more per page for the row that did not fit the
// page before. GDICT columns coded by the pre-pass encode nothing: the packer
// is handed their codes and holds no dictionary.
func TestPackerEncodeBudget(t *testing.T) {
	s, rows := lineitemByShipdate(6000)
	designs := []packerDesign{
		{name: "ROW", def: Row},
		{name: "PAGE", def: Page},
		{name: "RLE", def: RLE},
		{name: "GDICT", def: GlobalDict},
		{name: "mixed", def: Page, over: map[string]Method{
			"l_shipdate": RLE, "l_returnflag": GlobalDict, "l_linestatus": GlobalDict,
			"l_shipmode": GlobalDict, "l_comment": Row, "l_extendedprice": None,
		}},
	}
	for _, d := range designs {
		p, cc := d.packer(s, rows)
		pages, err := p.pack()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if p.passes > 3*len(pages) {
			t.Errorf("%s: %d passes over %d pages, budget is 3 per page", d.name, p.passes, len(pages))
		}
		for ci, c := range s.Columns {
			nonNull := 0
			for _, r := range rows {
				if !r[ci].Null {
					nonNull++
				}
			}
			budget := nonNull + len(pages)
			switch {
			case cc.resolved[ci] == None:
				budget = 0 // NONE writes full-width values with AppendValue
			case cc.resolved[ci] == GlobalDict && !cc.dicts[ci].plain:
				budget = 0 // coded from the pre-pass
			}
			if got := p.vals[ci].encodes; got > budget {
				t.Errorf("%s: column %s encoded %d times, budget %d (%d non-NULL values over %d pages)",
					d.name, c.Name, got, budget, nonNull, len(pages))
			}
		}
		ref := d.reference(s, rows)
		want, err := referencePack(ref, rows)
		if err != nil {
			t.Fatalf("%s: reference: %v", d.name, err)
		}
		assertSamePages(t, d.name, pages, want)
		if ref.passes < 3*p.passes {
			t.Errorf("%s: reference spent %d passes, packer %d — the test no longer shows a saving", d.name, ref.passes, p.passes)
		}
	}
}

// TestPureRLEPageRowCap: a pure-RLE page pays no slot array, so low-
// cardinality data never fills it; the page must stop at the u16 row count
// instead of failing the build (the doubling packer tried 65 536 rows).
func TestPureRLEPageRowCap(t *testing.T) {
	s := storage.NewSchema(storage.Column{Name: "v", Kind: storage.KindInt})
	rows := make([]storage.Row, 70000)
	for i := range rows {
		rows[i] = storage.Row{storage.IntVal(42)}
	}
	seg, err := storage.BuildSegment(s, rows, DesignCodec(RLE, nil))
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumPages() != 2 || seg.PageRows(0) != maxPageRows {
		t.Fatalf("got %d pages, first holding %d rows; want 2 pages, the first full at %d", seg.NumPages(), seg.PageRows(0), maxPageRows)
	}
	got := scanAll(t, seg)
	if len(got) != len(rows) {
		t.Fatalf("scanned %d rows, want %d", len(got), len(rows))
	}
	for i, r := range got {
		if r[0].Null || r[0].Int != 42 {
			t.Fatalf("row %d decoded as %v", i, r)
		}
	}
}
