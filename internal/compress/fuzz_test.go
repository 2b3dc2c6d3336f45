package compress

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cadb/internal/storage"
)

// fuzzSegment is one built segment FuzzPageDecode mutates the pages of.
type fuzzSegment struct {
	name string
	seg  *storage.Segment
	rows []storage.Row
}

// fuzzSegments builds a segment of every uniform method and one mixed
// design over the codec test schema.
func fuzzSegments(t testing.TB) []fuzzSegment {
	s := codecSchema()
	var out []fuzzSegment
	add := func(name string, c storage.PageCodec, seed int64) {
		rows := genCodecRows(600, 0.2, seed)
		seg, err := storage.BuildSegment(s, rows, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, fuzzSegment{name, seg, rows})
	}
	for i, m := range codecMethods {
		add(m.String(), Codec(m), int64(60+i))
	}
	d := mixedDesigns[0]
	add(d.name, DesignCodec(d.def, d.over), 66)
	return out
}

// FuzzPageDecode feeds mutated page payloads to the design codec's decoder.
// An input names a segment (one per uniform method plus a mixed design), a
// page of it, a seed for randomSpec's spec and slot list, and the payload
// decoded in place of the page's own. The seeds are each segment's first and
// last page whole, halved and with a flipped byte, and its first page with
// one column's section swapped for each hostile section of that column's
// kernel. The payload must decode to rows or
// fail with an error, never panic, and never allocate more than a bounded
// amount; the same decoder must then decode the intact page exactly as
// FallbackDecodeColumns does, so one bad page cannot poison the next.
func FuzzPageDecode(f *testing.F) {
	segs := fuzzSegments(f)
	for d, fs := range segs {
		for _, p := range []int{0, fs.seg.NumPages() - 1} {
			payload := fs.seg.Page(p).Payload
			f.Add(uint8(d), uint16(p), int64(d*31+p), payload)
			f.Add(uint8(d), uint16(p), int64(d*37+p), payload[:len(payload)/2])
			flipped := append([]byte(nil), payload...)
			flipped[len(flipped)/3] ^= 0x5A
			f.Add(uint8(d), uint16(p), int64(d*41+p), flipped)
		}
		// Each kernel's hostile sections (TestKernelsRejectHostileSections) in
		// place of one column's section of the first page.
		cc := fs.seg.Codec.(*columnCodec)
		n, sections := splitPage(f, fs.seg.Page(0).Payload)
		for ci, c := range fs.seg.Schema.Columns {
			dictLen := 0
			if st := cc.dicts[ci]; st != nil {
				dictLen = len(st.values)
			}
			for hi, h := range hostileSections(c, n, dictLen) {
				if h.method != cc.resolved[ci] {
					continue
				}
				hostile := slices.Clone(sections)
				hostile[ci] = h.body
				f.Add(uint8(d), uint16(0), int64(d*43+ci*7+hi), joinPage(n, hostile))
			}
		}
	}
	f.Fuzz(func(t *testing.T, design uint8, page uint16, seed int64, payload []byte) {
		fs := segs[int(design)%len(segs)]
		seg := fs.seg
		p := int(page) % seg.NumPages()
		nrows := seg.PageRows(p)
		spec, slots := randomSpec(rand.New(rand.NewSource(seed)), seg.Schema, fs.rows)
		dec := seg.Codec.NewDecoder(seg.Schema, spec)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := dec.Decode(payload, nrows, slots)
		runtime.ReadMemStats(&after)
		if limit := 64*uint64(len(payload)) + 1<<20; after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("decoding %d payload bytes allocated %d (limit %d)", len(payload), after.TotalAlloc-before.TotalAlloc, limit)
		}
		if err == nil {
			if len(got.Rows) > nrows || len(got.Slots) != len(got.Rows) {
				t.Fatalf("a %d-row page decoded to %d rows and %d slots", nrows, len(got.Rows), len(got.Slots))
			}
			for i, sl := range got.Slots {
				if sl < 0 || sl >= nrows || i > 0 && sl <= got.Slots[i-1] {
					t.Fatalf("slot %d at position %d of a %d-row page (slots %v)", sl, i, nrows, got.Slots)
				}
			}
		}
		assertPageDecode(t, seg, dec, p, spec, slots, fs.name)
	})
}
