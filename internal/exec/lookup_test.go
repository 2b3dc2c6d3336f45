package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cadb/internal/bufferpool"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// TestClusteredLookupMatchesOracle is the property test for RID lookups on a
// clustered table, which has no heap: the rows a non-covering secondary seek
// finds are looked up in the clustered structure, through its RID → leaf
// position map. Over random clustered keys and random mixed designs on the
// built-in schemas, in memory and disk-backed, random seeks that must look
// their rows up run before any write, after non-key UPDATEs that overlay both
// the secondary and the clustered structure (one of them located through
// such a seek itself), and after a DELETE, whose rebuild renumbers every
// position. Each result must be byte-identical to the oracle's, and its path
// must name the clustered structure as the one the lookups read.
func TestClusteredLookupMatchesOracle(t *testing.T) {
	designs := 3
	if testing.Short() {
		designs = 1
	}
	for _, sc := range overlaySchemas {
		for _, disk := range []bool{false, true} {
			rng := rand.New(rand.NewSource(43))
			for di := 0; di < designs; di++ {
				clusteredLookupSequence(t, fmt.Sprintf("%s design %d, disk-backed %v", sc.name, di, disk), rng, sc, disk)
			}
		}
	}
}

// clusteredLookupSequence runs one random design of
// TestClusteredLookupMatchesOracle.
func clusteredLookupSequence(t *testing.T, label string, rng *rand.Rand, sc overlaySchema, disk bool) {
	t.Helper()
	oracleDB, storeDB := sc.gen(), sc.gen()
	ft := oracleDB.MustTable(sc.fact)
	s := ft.Schema
	base := slices.Clone(ft.Rows)
	draw := func(ci int) storage.Value { return base[rng.Intn(len(base))][ci] }
	methods := []compress.Method{compress.None, compress.Row, compress.Page, compress.GlobalDict, compress.RLE}
	mixed := func(d *index.Def, cols []string) *index.Def {
		d.Method = methods[rng.Intn(len(methods))]
		d.ColMethods = map[string]compress.Method{}
		for _, c := range append(cols, "__rid") {
			if rng.Intn(2) == 0 {
				d.ColMethods[strings.ToLower(c)] = methods[rng.Intn(len(methods))]
			}
		}
		return d
	}

	// The clustered key: one or two random non-nullable columns other than the
	// id. The secondary is keyed on the id and includes one column off the
	// clustered key, so SELECT * on an id seeks it and looks every row up.
	var keys, rest []string
	for _, c := range s.Columns {
		if !c.Nullable && !strings.EqualFold(c.Name, sc.id) {
			keys = append(keys, c.Name)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:1+rng.Intn(2)]
	for _, c := range s.Names() {
		if !containsFoldStr(keys, c) && !strings.EqualFold(c, sc.id) {
			rest = append(rest, c)
		}
	}
	inc := rest[rng.Intn(len(rest))]
	clustered := mixed(&index.Def{Table: sc.fact, KeyCols: keys, Clustered: true}, s.Names())
	secondary := mixed(&index.Def{Table: sc.fact, KeyCols: []string{sc.id}, IncludeCols: []string{inc}}, []string{sc.id, inc})
	st, err := NewStore(storeDB, []*index.Def{clustered, secondary})
	if err != nil {
		t.Fatal(err)
	}
	if disk {
		st.SetDiskBacked(t.TempDir(), bufferpool.New(256<<10))
	}
	defer st.Close()
	hs := st.tables[strings.ToLower(sc.fact)]
	if len(hs) != 2 || hs[0].id != clustered.ID() || hs[1].id != secondary.ID() {
		t.Fatalf("%s: %s is stored as %d structures, want its clustered index and the secondary", label, sc.fact, len(hs))
	}

	id := s.ColIndex(sc.id)
	other := s.ColIndex(rest[rng.Intn(len(rest))])
	var queries []*workload.Query
	for i := 0; i < 4; i++ {
		eq := workload.Predicate{Col: sc.id, Op: workload.OpEq, Lo: draw(id)}
		queries = append(queries,
			&workload.Query{Tables: []string{sc.fact}, Preds: []workload.Predicate{eq}},
			&workload.Query{Tables: []string{sc.fact}, Preds: []workload.Predicate{eq,
				{Col: s.Columns[other].Name, Op: workload.OpLe, Lo: draw(other)}}},
			&workload.Query{Tables: []string{sc.fact},
				Select: []workload.ColRef{{Table: sc.fact, Col: s.Columns[other].Name}, {Table: sc.fact, Col: inc}},
				Preds:  []workload.Predicate{window(rng, ft, id, 0.002)}})
	}
	lookups := 0
	check := func(when string) {
		t.Helper()
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
			if len(got.Paths) != 1 || !strings.HasPrefix(got.Paths[0], "index-seek+lookup ") || !strings.Contains(got.Paths[0], " via "+secondary.ID()+" ") {
				t.Fatalf("%s %s: query %d took %v, not a seek of the secondary with lookups", label, when, i, got.Paths)
			}
			if !strings.HasSuffix(got.Paths[0], " lookups in "+clustered.ID()+")") {
				t.Fatalf("%s %s: query %d took %v, not lookups in the clustered structure", label, when, i, got.Paths)
			}
			if len(want.Rows) > 0 {
				lookups++
			}
		}
	}

	check("before the writes")
	// Non-key UPDATEs: the secondary's included column over a window of rows,
	// then another column on one id, located by a seek with lookups. Both
	// leave every position where it was, so each overlays the structures
	// storing its SET column.
	for _, u := range []*workload.Update{
		{Table: sc.fact, Set: []workload.Assignment{{Col: inc, Value: draw(s.ColIndex(inc))}},
			Preds: []workload.Predicate{window(rng, ft, other, 0.1)}},
		{Table: sc.fact, Set: []workload.Assignment{{Col: s.Columns[other].Name, Value: draw(other)}, {Col: inc, Value: draw(s.ColIndex(inc))}},
			Preds: []workload.Predicate{{Col: sc.id, Op: workload.OpEq, Lo: queries[0].Preds[0].Lo}}},
	} {
		want, err := RunUpdate(oracleDB, u)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := st.RunUpdate(u)
		if err != nil || got != want {
			t.Fatalf("%s: update of %s: wrote %d rows (%v), oracle %d", label, u.Set[0].Col, got, err, want)
		}
		check("after an update of " + u.Set[0].Col)
	}
	for _, h := range hs {
		if h.stale || h.si.OverlaidRows() == 0 {
			t.Fatalf("%s: %s holds no overlay after the updates", label, h.id)
		}
	}
	del := &workload.Delete{Table: sc.fact, Preds: []workload.Predicate{window(rng, ft, other, 0.1)}}
	want, err := RunDelete(oracleDB, del)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := st.RunDelete(del)
	if err != nil || got != want || got == 0 {
		t.Fatalf("%s: delete: %d rows (%v), oracle %d", label, got, err, want)
	}
	check("after the delete")
	if lookups == 0 {
		t.Fatalf("%s: no query looked up a row", label)
	}
}

// TestHeapScanOfClusteredTableIsAnError: a clustered table has no heap, so a
// plan that scans one is refused, never served from another structure.
func TestHeapScanOfClusteredTableIsAnError(t *testing.T) {
	st, err := NewStore(freshDB(), tpchDesign())
	if err != nil {
		t.Fatal(err)
	}
	plan := &optimizer.Plan{Paths: []optimizer.AccessPath{{Table: "lineitem", Kind: "heap-scan"}}}
	if _, err := st.route(plan, "lineitem", []string{"l_quantity"}); err == nil || !strings.Contains(err.Error(), "scans a heap") {
		t.Fatalf("a heap scan of clustered lineitem routed with error %v", err)
	}
	plan.Paths[0].Table = "orders"
	if r, err := st.route(plan, "orders", []string{"o_totalprice"}); err != nil || r.h.hypo != nil {
		t.Fatalf("a heap scan of orders, which has no clustered index, did not route to its heap: %v", err)
	}
}
