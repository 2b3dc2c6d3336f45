package compress

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"cadb/internal/storage"
)

// stateColumns are the columns a state-fuzz design takes its schema from: a
// design of k columns uses the first k.
var stateColumns = []storage.Column{
	{Name: "s", Kind: storage.KindString, Nullable: true},
	{Name: "i", Kind: storage.KindInt},
	{Name: "f", Kind: storage.KindFloat},
}

// stateDesigns are the designs FuzzLoadSegmentState loads state into: one to
// three columns, GDICT alone or beside other methods.
var stateDesigns = []struct {
	cols int
	def  Method
	over map[string]Method
}{
	{1, GlobalDict, nil},
	{2, GlobalDict, nil},
	{3, GlobalDict, nil},
	{3, Row, map[string]Method{"s": GlobalDict, "f": GlobalDict}},
	{2, RLE, map[string]Method{"i": GlobalDict}},
}

// stateRows generates rows over the first cols stateColumns: low-cardinality
// values with a NULL now and then, or, with distinct set, a string column no
// dictionary pays for.
func stateRows(cols, n int, distinct bool) []storage.Row {
	rows := make([]storage.Row, n)
	for r := range rows {
		row := storage.Row{storage.StringVal(fmt.Sprint("v", r%5)), storage.IntVal(int64(r % 7)), storage.FloatVal(float64(r%3) / 2)}
		switch {
		case distinct:
			row[0] = storage.StringVal(fmt.Sprintf("unique-value-%06d", r))
		case r%11 == 0:
			row[0] = storage.NullValue(storage.KindString)
		}
		rows[r] = row[:cols]
	}
	return rows
}

// loadState loads state into a fresh codec for design d and reports the bytes
// the load allocated.
func loadState(d int, state []byte) (c storage.PageCodec, allocated uint64, err error) {
	sd := stateDesigns[d]
	c = DesignCodec(sd.def, sd.over)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = c.LoadSegmentState(storage.NewSchema(stateColumns[:sd.cols]...), state)
	runtime.ReadMemStats(&after)
	return c, after.TotalAlloc - before.TotalAlloc, err
}

// TestLoadSegmentStateHostileCount: a dictionary header claiming 2^28 entries
// in a 7-byte state must cost an error, not an allocation sized by the claim.
func TestLoadSegmentStateHostileCount(t *testing.T) {
	_, grew, err := loadState(0, []byte{1, 0x0F, 0xFF, 0xFF, 0xFF, 1, 'a'})
	if err == nil {
		t.Fatal("state accepted")
	}
	if grew > 1<<20 {
		t.Fatalf("rejecting the state allocated %d bytes", grew)
	}
}

// FuzzLoadSegmentState feeds arbitrary state blocks to LoadSegmentState.
// Every input must load or fail with an error — never panic, never allocate
// more than a small multiple of its length — and a state SegmentState writes
// must load back into a fresh codec and serialize unchanged.
func FuzzLoadSegmentState(f *testing.F) {
	for d, sd := range stateDesigns {
		for _, distinct := range []bool{false, true} {
			rows := stateRows(sd.cols, 400, distinct)
			for _, c := range []storage.PageCodec{Codec(None), DesignCodec(sd.def, sd.over)} {
				if _, err := storage.BuildSegment(storage.NewSchema(stateColumns[:sd.cols]...), rows, c); err != nil {
					f.Fatal(err)
				}
				f.Add(uint8(d), c.SegmentState())
			}
		}
	}
	f.Add(uint8(0), []byte{1, 0x0F, 0xFF, 0xFF, 0xFF, 1, 'a'})
	// A 9-byte entry for the float column: no numeric value encodes that long.
	f.Add(uint8(2), []byte{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, design uint8, state []byte) {
		d := int(design) % len(stateDesigns)
		c, grew, err := loadState(d, state)
		if limit := 64*uint64(len(state)) + 64<<10; grew > limit {
			t.Fatalf("loading %d state bytes allocated %d (limit %d)", len(state), grew, limit)
		}
		if err != nil {
			return
		}
		out := c.SegmentState()
		again, _, err := loadState(d, out)
		if err != nil {
			t.Fatalf("SegmentState wrote a state that does not load: %v", err)
		}
		if got := again.SegmentState(); !bytes.Equal(got, out) {
			t.Fatalf("state changed across load → SegmentState:\n got %x\nwant %x", got, out)
		}
	})
}
