package exec

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"cadb/internal/bufferpool"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/sqlparse"
	"cadb/internal/storage"
	"cadb/internal/workloads"
)

// TestUpdateInvalidatesOnlyTouchedStructures pins what an in-place UPDATE
// does to each structure over its table. It moves no RID, so an index storing
// none of the SET columns stays the very segment it was. The structures that
// store a SET column as a non-key column — the clustered structure, which is
// the table's only copy (it has no heap), and a secondary including it — keep
// their segments too, and each one's overlay holds exactly the rows the
// UPDATE matched. A secondary keyed on a SET column has rows that change
// position: it is invalidated and rebuilt.
func TestUpdateInvalidatesOnlyTouchedStructures(t *testing.T) {
	cfg := datagen.TPCHConfig{LineitemRows: 2000, Seed: 13}
	oracleDB, storeDB := datagen.NewTPCH(cfg), datagen.NewTPCH(cfg)
	untouched := &index.Def{Table: "lineitem", KeyCols: []string{"l_partkey"}, IncludeCols: []string{"l_quantity"}, Method: compress.Row}
	touched := &index.Def{Table: "lineitem", KeyCols: []string{"l_suppkey"}, IncludeCols: []string{"l_returnflag"}, Method: compress.Page}
	clustered := &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Page}
	keyed := &index.Def{Table: "lineitem", KeyCols: []string{"l_returnflag"}, Method: compress.Row}
	st, err := NewStore(storeDB, []*index.Def{untouched, touched, clustered, keyed})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT l_partkey, l_quantity FROM lineitem WHERE l_partkey BETWEEN 10 AND 20",
		"SELECT l_suppkey, l_returnflag FROM lineitem WHERE l_suppkey BETWEEN 3 AND 6",
		"SELECT l_returnflag, COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN DATE 9800 AND DATE 9900 GROUP BY l_returnflag",
		"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag",
	}
	check := func(when string) {
		t.Helper()
		for _, sql := range queries {
			got, err := st.RunQuery(q(t, sql))
			if err != nil {
				t.Fatalf("%s: %s: %v", when, sql, err)
			}
			want, err := Run(oracleDB, q(t, sql))
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, when+": "+sql, got, want)
		}
	}
	check("before")
	built := func() map[string]*index.SegmentIndex {
		out := make(map[string]*index.SegmentIndex)
		for _, h := range st.all {
			if h.si != nil && !h.stale {
				out[h.id] = h.si
			}
		}
		return out
	}
	before := built()
	for _, id := range []string{untouched.ID(), touched.ID(), clustered.ID(), keyed.ID()} {
		if before[id] == nil {
			t.Fatalf("%s was not built by the warm-up queries", id)
		}
	}
	if hs := st.tables["lineitem"]; len(hs) != 4 || hs[0].id != clustered.ID() {
		t.Fatalf("lineitem is stored as %d structures based on %s, want the design's 4 based on its clustered index", len(hs), hs[0].id)
	}

	stmt, err := sqlparse.ParseStatement("UPDATE lineitem SET l_returnflag = 'R' WHERE l_shipdate BETWEEN DATE 9800 AND DATE 9890")
	if err != nil {
		t.Fatal(err)
	}
	var matched []int64
	li := oracleDB.MustTable("lineitem")
	where, err := index.NewRowFilter(li.Schema, stmt.Update.Preds)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range li.Rows {
		if where.Keep(r) {
			matched = append(matched, int64(i))
		}
	}
	want, err := RunUpdate(oracleDB, stmt.Update)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := st.RunUpdate(stmt.Update)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == 0 {
		t.Fatalf("updated %d rows, oracle %d", got, want)
	}
	after := built()
	if after[untouched.ID()] != before[untouched.ID()] {
		t.Errorf("%s stores no SET column but was invalidated", untouched)
	}
	if after[untouched.ID()].OverlaidRows() != 0 {
		t.Errorf("%s stores no SET column but took an overlay", untouched)
	}
	for _, id := range []string{touched.ID(), clustered.ID()} {
		if after[id] != before[id] {
			t.Errorf("%s holds l_returnflag off its key but was invalidated", id)
			continue
		}
		if rids := after[id].OverlaidRIDs(); !slices.Equal(rids, matched) {
			t.Errorf("%s: overlay holds %d RIDs, the update matched %d", id, len(rids), len(matched))
		}
	}
	if after[keyed.ID()] != nil {
		t.Errorf("%s is keyed on l_returnflag but survived the update", keyed)
	}
	check("after")
	now := built()
	if now[untouched.ID()] != before[untouched.ID()] {
		t.Errorf("%s was rebuilt by the queries after the update", untouched)
	}
	for _, id := range []string{touched.ID(), clustered.ID()} {
		if now[id] != before[id] {
			t.Errorf("%s was rebuilt by the queries after the update", id)
		}
	}
	if now[keyed.ID()] == nil || now[keyed.ID()] == before[keyed.ID()] || now[keyed.ID()].OverlaidRows() != 0 {
		t.Errorf("%s was not rebuilt by the queries after the update", keyed)
	}
}

// buildFootprint is everything about a store's run that must not depend on
// how many segments were built at once.
type buildFootprint struct {
	statements []string // per statement: result digest or write count, plus counted I/O
	segments   []string // per built handle: id, pages, disk bytes
	files      []string // surviving spill files: name and size
	diskBytes  int64
}

func footprint(t *testing.T, procs int, disk bool) buildFootprint {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 11})
	st, err := NewStore(db, tpchDesign())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if disk {
		st.SetDiskBacked(dir, bufferpool.New(256<<10))
	}
	var fp buildFootprint
	for _, s := range workloads.MustTPCHWithUpdates().Statements {
		var line string
		switch {
		case s.Query != nil:
			res, err := st.RunQuery(s.Query)
			if err != nil {
				t.Fatalf("procs %d: %s: %v", procs, s.Label, err)
			}
			var buf []byte
			for _, r := range res.Rows {
				buf = storage.EncodeRow(res.Schema, r, buf)
			}
			line = fmt.Sprintf("%s rows=%d sha=%x reads=%d decoded=%d", s.Label, len(res.Rows), sha256.Sum256(buf), res.IO.PageReads, res.IO.PagesDecoded)
		case s.Update != nil:
			n, io, err := st.RunUpdate(s.Update)
			if err != nil {
				t.Fatalf("procs %d: %s: %v", procs, s.Label, err)
			}
			line = fmt.Sprintf("%s n=%d reads=%d", s.Label, n, io.PageReads)
		case s.Delete != nil:
			n, io, err := st.RunDelete(s.Delete)
			if err != nil {
				t.Fatalf("procs %d: %s: %v", procs, s.Label, err)
			}
			line = fmt.Sprintf("%s n=%d reads=%d", s.Label, n, io.PageReads)
		default:
			continue
		}
		fp.statements = append(fp.statements, line)
	}
	for _, h := range st.all {
		if h.si != nil && !h.stale {
			fp.segments = append(fp.segments, fmt.Sprintf("%s pages=%d disk=%d", h.id, h.si.Seg.NumPages(), h.si.Seg.DiskBytes()))
		}
	}
	sort.Strings(fp.segments)
	fp.diskBytes = st.DiskBytes()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fp.files = append(fp.files, fmt.Sprintf("%s %d", e.Name(), info.Size()))
	}
	if disk {
		if len(fp.files) == 0 {
			t.Fatal("disk-backed store left no spill files")
		}
		if pinned := st.Pool().Stats().PinnedFrames; pinned != 0 {
			t.Errorf("procs %d: %d frames still pinned after the workload", procs, pinned)
		}
	}
	st.Close()
	return fp
}

// TestConcurrentSegmentBuildsDeterministic builds the same design through the
// same read/write workload with one CPU (the serial loop) and with several
// (heap and seekable structures encoding and spilling at once): page counts,
// disk bytes, spill file names and every statement's result and counted I/O
// must be identical, rebuilds after UPDATE/DELETE included. Run under -race
// it is also the data-race check of the fan-out.
func TestConcurrentSegmentBuildsDeterministic(t *testing.T) {
	for _, disk := range []bool{false, true} {
		serial := footprint(t, 1, disk)
		parallel := footprint(t, 4, disk)
		label := map[bool]string{false: "in-memory", true: "disk-backed"}[disk]
		if serial.diskBytes != parallel.diskBytes {
			t.Errorf("%s: DiskBytes %d at 1 CPU, %d at 4", label, serial.diskBytes, parallel.diskBytes)
		}
		for _, c := range []struct {
			what string
			a, b []string
		}{
			{"statements", serial.statements, parallel.statements},
			{"segments", serial.segments, parallel.segments},
			{"spill files", serial.files, parallel.files},
		} {
			if a, b := strings.Join(c.a, "\n"), strings.Join(c.b, "\n"); a != b {
				t.Errorf("%s: %s differ between 1 and 4 CPUs:\n--- 1\n%s\n--- 4\n%s", label, c.what, a, b)
			}
		}
	}
}
