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
// one-pass packer must cut the same pages and produce the same bytes.
func referencePack(p *packer, rows []storage.Row) ([]storage.EncodedPage, error) {
	encode := func(rows []storage.Row) ([]byte, error) { return p.encodeGroup(rows, 0) }
	var out []storage.EncodedPage
	n := len(rows)
	fits := func(payload []byte, k int) bool {
		return len(payload)+p.slotBytes(k) <= storage.UsablePageBytes
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
				AccountedBytes: len(payload) + p.slotBytes(1),
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
			AccountedBytes: len(goodPayload) + p.slotBytes(good),
		})
		start += good
	}
	return out, nil
}

// packerDesign is one way to build a packer: a design, with or without the
// segment pre-pass.
type packerDesign struct {
	name    string
	def     Method
	over    map[string]Method
	prepare bool // run PrepareSegment first (BuildSegment does; SegmentWriter cannot)
}

func (d packerDesign) packer(t *testing.T, s *storage.Schema, rows []storage.Row) *packer {
	t.Helper()
	cc := newColumnCodec(d.def, d.over)
	if d.prepare && len(rows) > 0 {
		if err := cc.PrepareSegment(s, rows); err != nil {
			t.Fatal(err)
		}
	}
	return cc.packer(s)
}

// randomDesigns covers every uniform method plus seeded random per-column
// vectors over the schema.
func randomDesigns(s *storage.Schema, rng *rand.Rand, mixed int) []packerDesign {
	var out []packerDesign
	for _, m := range codecMethods {
		out = append(out, packerDesign{name: m.String(), def: m, prepare: true})
	}
	out = append(out, packerDesign{name: "GDICT-unprepared", def: GlobalDict})
	for i := 0; i < mixed; i++ {
		over := make(map[string]Method)
		for _, c := range s.Columns {
			over[c.Name] = codecMethods[rng.Intn(len(codecMethods))]
		}
		out = append(out, packerDesign{name: fmt.Sprintf("mixed%d%v", i, over), def: Row, over: over, prepare: i%2 == 0})
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
			got, err := d.packer(t, in.s, in.rows).pack(in.rows)
			if err != nil {
				t.Fatalf("%s: pack: %v", label, err)
			}
			want, err := referencePack(d.packer(t, in.s, in.rows), in.rows)
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
// the reference spends one per trial.
func TestPackerEncodeBudget(t *testing.T) {
	s, rows := lineitemByShipdate(6000)
	designs := []packerDesign{
		{name: "PAGE", def: Page, prepare: true},
		{name: "mixed", def: Page, prepare: true, over: map[string]Method{
			"l_shipdate": RLE, "l_returnflag": GlobalDict, "l_linestatus": GlobalDict,
			"l_shipmode": GlobalDict, "l_comment": Row, "l_extendedprice": None,
		}},
	}
	for _, d := range designs {
		p := d.packer(t, s, rows)
		pages, err := p.pack(rows)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if p.passes > 3*len(pages) {
			t.Errorf("%s: %d passes over %d pages, budget is 3 per page", d.name, p.passes, len(pages))
		}
		ref := d.packer(t, s, rows)
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
