package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// overlaySchema is a built-in schema's fact table as the overlay tests write
// it: id is a selective column, so an equality on it seeks.
type overlaySchema struct {
	name, fact, id string
	gen            func() *catalog.Database
}

var overlaySchemas = []overlaySchema{
	{"tpch", "lineitem", "l_orderkey", func() *catalog.Database {
		return datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 2000, Seed: 17})
	}},
	{"sales", "sales", "salesid", func() *catalog.Database {
		return datagen.NewSales(datagen.SalesConfig{FactRows: 2000, Zipf: 0.8, Seed: 17})
	}},
}

// randomOverlayDesign draws a design on the fact table: a clustered index
// half the time, a secondary with a few included columns, one on a
// composite key, and a narrow one keyed on the id column that SELECT * seeks
// and looks up from. Keys are non-nullable columns, so a range on a leading
// key from the smallest value covers a structure's first page.
func randomOverlayDesign(rng *rand.Rand, sc overlaySchema, s *storage.Schema) []*index.Def {
	methods := []compress.Method{compress.None, compress.Row, compress.Page, compress.GlobalDict, compress.RLE}
	method := func() compress.Method { return methods[rng.Intn(len(methods))] }
	var keys []string
	for _, c := range s.Columns {
		if !c.Nullable && !strings.EqualFold(c.Name, sc.id) {
			keys = append(keys, c.Name)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	include := func(n int, key ...string) []string {
		var out []string
		for _, ci := range rng.Perm(len(s.Columns)) {
			if c := s.Columns[ci].Name; len(out) < n && !containsFoldStr(key, c) {
				out = append(out, c)
			}
		}
		return out
	}
	var defs []*index.Def
	if rng.Intn(2) == 0 {
		defs = append(defs, &index.Def{Table: sc.fact, KeyCols: keys[:1], Clustered: true, Method: method()})
	}
	mixed := &index.Def{Table: sc.fact, KeyCols: keys[1:2], IncludeCols: include(1+rng.Intn(3), keys[1]), Method: method()}
	mixed.ColMethods = map[string]compress.Method{}
	for _, c := range append(mixed.Columns(), "__rid") {
		mixed.ColMethods[strings.ToLower(c)] = method()
	}
	return append(defs, mixed,
		&index.Def{Table: sc.fact, KeyCols: keys[2:4], IncludeCols: include(rng.Intn(2), keys[2:4]...), Method: method()},
		&index.Def{Table: sc.fact, KeyCols: []string{sc.id}, IncludeCols: include(1, sc.id), Method: method()})
}

// window is a BETWEEN on column ci spanning about frac of the table's
// current rows, at a random place in their value order.
func window(rng *rand.Rand, t *catalog.Table, ci int, frac float64) workload.Predicate {
	var vals []storage.Value
	for _, r := range t.Rows {
		if !r[ci].Null {
			vals = append(vals, r[ci])
		}
	}
	slices.SortFunc(vals, storage.Value.Compare)
	span := int(frac * float64(len(vals)))
	lo := rng.Intn(len(vals) - span)
	return workload.Predicate{Col: t.Schema.Columns[ci].Name, Op: workload.OpBetween, Lo: vals[lo], Hi: vals[lo+span]}
}

// TestOverlayMatchesOracleRandomized is the property test for UPDATE
// overlays: over random designs on the built-in schemas, in memory and
// disk-backed, a scripted sequence of writes with random columns, values
// and predicates — an UPDATE off every key, the same rows updated again, an
// UPDATE covering every slot of a structure's first page, one of a key
// column, one that crosses the fold share, a DELETE after the overlays and
// an UPDATE after it — interleaved with random queries, covering seeks and
// seeks with RID lookups. Every result must be byte-identical to the
// oracle's. After a write that invalidated no structure, every query must
// count exactly the page reads it counted before it: an overlay changes
// which rows a page yields, never which pages are read.
func TestOverlayMatchesOracleRandomized(t *testing.T) {
	designs := 3
	if testing.Short() {
		designs = 1
	}
	kinds := map[string]int{}
	for _, sc := range overlaySchemas {
		for _, disk := range []bool{false, true} {
			rng := rand.New(rand.NewSource(31))
			for di := 0; di < designs; di++ {
				label := fmt.Sprintf("%s design %d, disk-backed %v", sc.name, di, disk)
				checked := overlaySequence(t, label, rng, sc, disk, kinds)
				if checked == 0 {
					t.Fatalf("%s: no write left every structure built; the page-read check never ran", label)
				}
			}
		}
	}
	for _, k := range []string{"scan", "seek", "+lookup"} {
		if kinds[k] == 0 {
			t.Errorf("no query took a %s path: %v", k, kinds)
		}
	}
}

// overlaySequence runs one design's write script (see
// TestOverlayMatchesOracleRandomized), tallying the path kinds its queries
// took, and returns how many writes the page-read check ran after.
func overlaySequence(t *testing.T, label string, rng *rand.Rand, sc overlaySchema, disk bool, kinds map[string]int) int {
	t.Helper()
	oracleDB, storeDB := sc.gen(), sc.gen()
	ft := oracleDB.MustTable(sc.fact)
	s := ft.Schema
	base := slices.Clone(ft.Rows)
	gens := make([]streamGen, len(s.Columns))
	for ci := range gens {
		gens[ci] = func(rng *rand.Rand) storage.Value { return base[rng.Intn(len(base))][ci] }
	}
	defs := randomOverlayDesign(rng, sc, s)
	st, err := NewStore(storeDB, defs)
	if err != nil {
		t.Fatal(err)
	}
	if disk {
		st.SetDiskBacked(t.TempDir(), bufferpool.New(256<<10))
	}
	defer st.Close()

	var queries []*workload.Query
	for i := 0; i < 8; i++ {
		queries = append(queries, randomStreamQuery(rng, sc.fact, s, base, gens))
	}
	for _, d := range defs {
		k := d.KeyCols[0]
		eq := []workload.Predicate{{Col: k, Op: workload.OpEq, Lo: gens[s.ColIndex(k)](rng)}}
		var cols []workload.ColRef
		for _, c := range d.Columns() {
			cols = append(cols, workload.ColRef{Table: sc.fact, Col: c})
		}
		queries = append(queries,
			&workload.Query{Tables: []string{sc.fact}, Preds: eq},               // SELECT *
			&workload.Query{Tables: []string{sc.fact}, Select: cols, Preds: eq}) // covered
	}
	runAll := func(when string) []int64 {
		t.Helper()
		reads := make([]int64, len(queries))
		for i, qq := range queries {
			want, err := Run(oracleDB, qq)
			if err != nil {
				t.Fatalf("%s %s: query %d: oracle: %v", label, when, i, err)
			}
			got, err := st.RunQuery(qq)
			if err != nil {
				t.Fatalf("%s %s: query %d: store: %v", label, when, i, err)
			}
			assertResultsIdentical(t, fmt.Sprintf("%s %s: query %d", label, when, i), got, want)
			reads[i] = got.IO.PageReads
			for _, p := range got.Paths {
				for _, k := range []string{"scan", "seek", "+lookup"} {
					if strings.Contains(strings.Fields(p)[0], k) {
						kinds[k]++
					}
				}
			}
		}
		return reads
	}

	isKey := func(ci int) bool {
		return slices.ContainsFunc(defs, func(d *index.Def) bool { return containsFoldStr(d.KeyCols, s.Columns[ci].Name) })
	}
	var free, numeric []int // columns off every key; numeric ones to window over
	for ci, c := range s.Columns {
		if !isKey(ci) {
			free = append(free, ci)
		}
		if c.Kind != storage.KindString {
			numeric = append(numeric, ci)
		}
	}
	set := func(ci int) []workload.Assignment {
		return []workload.Assignment{{Col: s.Columns[ci].Name, Value: gens[ci](rng)}}
	}
	update := func(cols []workload.Assignment, preds ...workload.Predicate) workload.Statement {
		return workload.Statement{Update: &workload.Update{Table: sc.fact, Set: cols, Preds: preds}}
	}

	// Every slot of a random ordered structure's first page, rewritten: its
	// leading key up to the value at the page's last slot, and a column it
	// stores off its key (off every key, where it has one).
	pageCover := func() workload.Statement {
		type target struct {
			h    *segHandle
			cols []int
		}
		var ts []target
		for _, h := range st.tables[strings.ToLower(sc.fact)] {
			tg := target{h: h} // a heap stores no column off a key: never a target
			for _, c := range h.def.Columns() {
				if !containsFoldStr(h.def.KeyCols, c) {
					tg.cols = append(tg.cols, s.ColIndex(c))
				}
			}
			if len(tg.cols) > 0 {
				ts = append(ts, tg)
			}
		}
		tg := ts[rng.Intn(len(ts))]
		col := tg.cols[rng.Intn(len(tg.cols))]
		for _, ci := range tg.cols {
			if slices.Contains(free, ci) {
				col = ci
			}
		}
		ci := s.ColIndex(tg.h.def.KeyCols[0])
		vals := make([]storage.Value, 0, len(ft.Rows))
		for _, r := range ft.Rows {
			vals = append(vals, r[ci])
		}
		slices.SortFunc(vals, storage.Value.Compare)
		last := vals[tg.h.si.Seg.PageRows(0)-1]
		return update(set(col), workload.Predicate{Col: s.Columns[ci].Name, Op: workload.OpLe, Lo: last})
	}

	var keyed []*index.Def
	for _, d := range defs {
		if !d.Clustered {
			keyed = append(keyed, d)
		}
	}
	first := window(rng, ft, numeric[rng.Intn(len(numeric))], 0.1)
	script := []struct {
		what string
		stmt func() workload.Statement
	}{
		{"update off every key", func() workload.Statement { return update(set(free[rng.Intn(len(free))]), first) }},
		{"the same rows again", func() workload.Statement { return update(set(free[rng.Intn(len(free))]), first) }},
		{"an update covering a first page", pageCover},
		{"an update of a key column", func() workload.Statement {
			d := keyed[rng.Intn(len(keyed))]
			ci := s.ColIndex(d.KeyCols[rng.Intn(len(d.KeyCols))])
			return update(append(set(ci), set(free[rng.Intn(len(free))])...), window(rng, ft, numeric[rng.Intn(len(numeric))], 0.1))
		}},
		{"an update past the fold share", func() workload.Statement {
			return update(set(free[0]), window(rng, ft, numeric[rng.Intn(len(numeric))], 0.7))
		}},
		{"an update off every key after the fold", func() workload.Statement {
			return update(set(free[rng.Intn(len(free))]), window(rng, ft, numeric[rng.Intn(len(numeric))], 0.1))
		}},
		{"a delete after the overlays", func() workload.Statement {
			return workload.Statement{Delete: &workload.Delete{Table: sc.fact, Preds: []workload.Predicate{
				window(rng, ft, numeric[rng.Intn(len(numeric))], 0.1)}}}
		}},
		{"an update off every key after the delete", func() workload.Statement {
			return update(set(free[rng.Intn(len(free))]), window(rng, ft, numeric[rng.Intn(len(numeric))], 0.1))
		}},
	}

	checked := 0
	reads := runAll("deployed")
	for _, step := range script {
		if err := st.ensureBuilt(st.all...); err != nil {
			t.Fatal(err)
		}
		w := step.stmt()
		var got, want int64
		var gerr, werr error
		if w.Update != nil {
			want, werr = RunUpdate(oracleDB, w.Update)
			got, _, gerr = st.RunUpdate(w.Update)
		} else {
			want, werr = RunDelete(oracleDB, w.Delete)
			got, _, gerr = st.RunDelete(w.Delete)
		}
		if werr != nil || gerr != nil {
			t.Fatalf("%s: %s: oracle %v, store %v", label, step.what, werr, gerr)
		}
		if got != want {
			t.Fatalf("%s: %s: wrote %d rows, oracle %d", label, step.what, got, want)
		}
		var stale []string
		for _, h := range st.all {
			if h.stale {
				stale = append(stale, h.id)
			}
		}
		if step.what == "an update past the fold share" {
			// Every structure storing the SET column folded.
			if 2*got <= int64(len(ft.Rows)) {
				t.Fatalf("%s: %s matched %d of %d rows", label, step.what, got, len(ft.Rows))
			}
			for _, h := range st.tables[strings.ToLower(sc.fact)] {
				if stores := h.hypo == nil || containsFoldStr(h.def.Columns(), s.Columns[free[0]].Name); stores && !h.stale {
					t.Fatalf("%s: %s: %s holds %d overlaid rows of %d, unfolded", label, step.what, h.id, h.si.OverlaidRows(), h.si.Seg.Rows())
				}
			}
		}
		now := runAll("after " + step.what)
		if w.Update != nil && len(stale) == 0 {
			if !slices.Equal(now, reads) {
				t.Fatalf("%s: %s moved no row and folded nothing, yet page reads went %v -> %v", label, step.what, reads, now)
			}
			checked++
		}
		reads = now
	}
	t.Logf("%s: page reads checked after %d of %d writes", label, checked, len(script))
	return checked
}

// TestStoreLookupAfterUpdate forces the one path no workload takes — a
// non-covering secondary seek, then a RID lookup in the table's base
// structure — after UPDATEs that overlay both the secondary (its included
// column) and the base structure, on a table with a clustered index (whose
// clustered structure is the base) and on a heap-only one, in memory and
// disk-backed. The seek must find its RIDs through the secondary's overlay
// (a predicate on the rewritten column is pushed into it), and the lookup
// must serve the base structure's rewritten rows from its overlay.
func TestStoreLookupAfterUpdate(t *testing.T) {
	secondary := &index.Def{Table: "lineitem", KeyCols: []string{"l_orderkey"}, IncludeCols: []string{"l_comment"}, Method: compress.Page}
	clustered := &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Row}
	for _, c := range []struct {
		name string
		defs []*index.Def
	}{
		{"clustered table", []*index.Def{clustered, secondary}},
		{"heap-only table", []*index.Def{secondary}},
	} {
		for _, disk := range []bool{false, true} {
			label := fmt.Sprintf("%s, disk-backed %v", c.name, disk)
			cfg := datagen.TPCHConfig{LineitemRows: 6000, Seed: 3}
			oracleDB, storeDB := datagen.NewTPCH(cfg), datagen.NewTPCH(cfg)
			st, err := NewStore(storeDB, c.defs)
			if err != nil {
				t.Fatal(err)
			}
			if disk {
				st.SetDiskBacked(t.TempDir(), bufferpool.New(1<<20))
			}
			li := oracleDB.MustTable("lineitem")
			key := li.Rows[len(li.Rows)/2][li.Schema.ColIndex("l_orderkey")].Int
			queries := []string{
				fmt.Sprintf("SELECT * FROM lineitem WHERE l_orderkey = %d", key),
				fmt.Sprintf("SELECT * FROM lineitem WHERE l_orderkey = %d AND l_comment = 'patched'", key),
				fmt.Sprintf("SELECT l_quantity, l_comment FROM lineitem WHERE l_orderkey = %d AND l_quantity <= 25", key),
			}
			check := func(when string) {
				t.Helper()
				for _, sql := range queries {
					got, err := st.RunQuery(q(t, sql))
					if err != nil {
						t.Fatalf("%s %s: %s: %v", label, when, sql, err)
					}
					want, err := Run(oracleDB, q(t, sql))
					if err != nil {
						t.Fatal(err)
					}
					assertResultsIdentical(t, label+" "+when+": "+sql, got, want)
					if len(got.Paths) != 1 || !strings.Contains(got.Paths[0], "seek+lookup") {
						t.Fatalf("%s %s: %s took %v, not a seek + lookup", label, when, sql, got.Paths)
					}
					if base := st.tables["lineitem"][0].id; !strings.HasSuffix(got.Paths[0], " lookups in "+base+")") {
						t.Fatalf("%s %s: %s took %v, not a lookup in the base structure %s", label, when, sql, got.Paths, base)
					}
				}
			}
			check("before")
			for _, sql := range []string{
				fmt.Sprintf("UPDATE lineitem SET l_comment = 'patched' WHERE l_orderkey = %d AND l_linenumber <= 2", key),
				fmt.Sprintf("UPDATE lineitem SET l_quantity = 1, l_comment = 'patched' WHERE l_orderkey BETWEEN %d AND %d", key-1, key),
			} {
				u := stmt(t, sql).Update
				want, err := RunUpdate(oracleDB, u)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := st.RunUpdate(u)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || got == 0 {
					t.Fatalf("%s: %s: updated %d rows, oracle %d", label, sql, got, want)
				}
				check("after " + sql)
			}
			for _, h := range st.tables["lineitem"] {
				if h.stale || h.si.OverlaidRows() == 0 {
					t.Fatalf("%s: %s holds no overlay after the updates", label, h.id)
				}
			}
			st.Close()
		}
	}
}
