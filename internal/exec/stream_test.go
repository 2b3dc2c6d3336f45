package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// streamGen generates values for one randomly drawn column.
type streamGen func(rng *rand.Rand) storage.Value

// randomStreamTable builds a random single-table database: 4-7 columns of
// mixed kinds (small domains so predicates and dictionaries bite, shared
// string prefixes so the PAGE prefix shortcuts fire), with random
// nullability.
func randomStreamTable(rng *rand.Rand, nrows int) (*catalog.Database, []streamGen) {
	ncols := 4 + rng.Intn(4)
	cols := make([]storage.Column, ncols)
	gens := make([]streamGen, ncols)
	for i := range cols {
		name := fmt.Sprintf("c%d", i)
		nullable := rng.Float64() < 0.4
		dom := 8 + rng.Intn(40)
		switch rng.Intn(4) {
		case 0:
			cols[i] = storage.Column{Name: name, Kind: storage.KindInt, Nullable: nullable}
			gens[i] = func(rng *rand.Rand) storage.Value { return storage.IntVal(int64(rng.Intn(dom)) - 5) }
		case 1:
			cols[i] = storage.Column{Name: name, Kind: storage.KindFloat, Nullable: nullable}
			gens[i] = func(rng *rand.Rand) storage.Value { return storage.FloatVal(float64(rng.Intn(dom)) / 4) }
		case 2:
			cols[i] = storage.Column{Name: name, Kind: storage.KindDate, Nullable: nullable}
			gens[i] = func(rng *rand.Rand) storage.Value { return storage.DateVal(int64(9000 + rng.Intn(dom*10))) }
		default:
			width := 0
			if rng.Float64() < 0.5 {
				width = 10
			}
			prefix := []string{"", "PRE-", "ZZZ-"}[rng.Intn(3)]
			cols[i] = storage.Column{Name: name, Kind: storage.KindString, FixedWidth: width, Nullable: nullable}
			gens[i] = func(rng *rand.Rand) storage.Value {
				return storage.StringVal(fmt.Sprintf("%s%03d", prefix, rng.Intn(dom)))
			}
		}
	}
	s := storage.NewSchema(cols...)
	rows := make([]storage.Row, nrows)
	for i := range rows {
		r := make(storage.Row, ncols)
		for j := range r {
			if cols[j].Nullable && rng.Float64() < 0.1 {
				r[j] = storage.NullValue(cols[j].Kind)
			} else {
				r[j] = gens[j](rng)
			}
		}
		rows[i] = r
	}
	db := catalog.NewDatabase("stream_prop")
	db.AddTable(&catalog.Table{Name: "t", Schema: s, Rows: rows})
	return db, gens
}

// randomStreamQuery draws a single-table query: random predicates (bounds
// mostly from the data, occasionally fresh or NULL), and either a grouped
// aggregate or a projection, each with optional ORDER BY.
func randomStreamQuery(rng *rand.Rand, s *storage.Schema, rows []storage.Row, gens []streamGen) *workload.Query {
	q := &workload.Query{Tables: []string{"t"}}
	ops := []workload.CmpOp{
		workload.OpEq, workload.OpNe, workload.OpLt, workload.OpLe,
		workload.OpGt, workload.OpGe, workload.OpBetween,
	}
	bound := func(ci int) storage.Value {
		r := rng.Float64()
		switch {
		case r < 0.05:
			return storage.NullValue(s.Columns[ci].Kind)
		case r < 0.2:
			return gens[ci](rng)
		default:
			return rows[rng.Intn(len(rows))][ci]
		}
	}
	for np := rng.Intn(4); np > 0; np-- {
		ci := rng.Intn(len(s.Columns))
		p := workload.Predicate{Col: s.Columns[ci].Name, Op: ops[rng.Intn(len(ops))], Lo: bound(ci)}
		if p.Op == workload.OpBetween {
			p.Hi = bound(ci)
		}
		q.Preds = append(q.Preds, p)
	}
	pickCols := func(max int) []workload.ColRef {
		seen := map[int]bool{}
		var out []workload.ColRef
		for k := 1 + rng.Intn(max); k > 0; k-- {
			ci := rng.Intn(len(s.Columns))
			if !seen[ci] {
				seen[ci] = true
				out = append(out, workload.ColRef{Table: "t", Col: s.Columns[ci].Name})
			}
		}
		return out
	}
	if rng.Float64() < 0.5 {
		// Grouped aggregate (sometimes global: no GROUP BY).
		if rng.Float64() < 0.8 {
			q.GroupBy = pickCols(2)
		}
		funcs := []workload.AggFunc{workload.AggSum, workload.AggCount, workload.AggAvg, workload.AggMin, workload.AggMax}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			f := funcs[rng.Intn(len(funcs))]
			a := workload.Aggregate{Func: f}
			if f != workload.AggCount || rng.Float64() < 0.5 {
				ci := rng.Intn(len(s.Columns))
				if f == workload.AggSum || f == workload.AggAvg {
					// SUM/AVG need a numeric source.
					for s.Columns[ci].Kind == storage.KindString {
						ci = rng.Intn(len(s.Columns))
					}
				}
				a.Col = workload.ColRef{Table: "t", Col: s.Columns[ci].Name}
			}
			q.Aggs = append(q.Aggs, a)
		}
		if len(q.GroupBy) > 0 && rng.Float64() < 0.5 {
			q.OrderBy = q.GroupBy[:1]
		}
	} else if rng.Float64() < 0.1 {
		// SELECT * — every column, no explicit list.
	} else {
		q.Select = pickCols(len(s.Columns))
		if rng.Float64() < 0.5 {
			q.OrderBy = q.Select[:1]
		}
	}
	return q
}

// randomStreamDesign builds a physical design exercising every access path:
// a clustered index on one column and a secondary (randomly covering or not)
// on another. A nil vector makes both uniform under m; otherwise every leaf
// column (the secondary's RID included) draws its own method from it.
func randomStreamDesign(rng *rand.Rand, s *storage.Schema, m compress.Method, vector []compress.Method) []*index.Def {
	perm := rng.Perm(len(s.Columns))
	cl := &index.Def{Table: "t", KeyCols: []string{s.Columns[perm[0]].Name}, Clustered: true, Method: m}
	sec := &index.Def{Table: "t", KeyCols: []string{s.Columns[perm[1]].Name}, Method: m}
	for _, ci := range perm[2:] {
		if rng.Float64() < 0.5 {
			sec.IncludeCols = append(sec.IncludeCols, s.Columns[ci].Name)
		}
	}
	if vector != nil {
		cl.ColMethods = make(map[string]compress.Method)
		for _, c := range s.Columns {
			cl.ColMethods[c.Name] = vector[rng.Intn(len(vector))]
		}
		sec.ColMethods = make(map[string]compress.Method)
		for _, c := range append(sec.Columns(), "__rid") {
			sec.ColMethods[c] = vector[rng.Intn(len(vector))]
		}
	}
	return []*index.Def{cl, sec}
}

// randomStreamWrite draws an UPDATE (one random assignment) or a DELETE over
// the same kind of random predicates the queries use.
func randomStreamWrite(rng *rand.Rand, s *storage.Schema, rows []storage.Row, gens []streamGen) *workload.Statement {
	preds := randomStreamQuery(rng, s, rows, gens).Preds
	if rng.Float64() < 0.3 {
		return &workload.Statement{Delete: &workload.Delete{Table: "t", Preds: preds}}
	}
	ci := rng.Intn(len(s.Columns))
	return &workload.Statement{Update: &workload.Update{Table: "t", Preds: preds,
		Set: []workload.Assignment{{Col: s.Columns[ci].Name, Value: gens[ci](rng)}}}}
}

// twinDB copies a single-table database so a store and the oracle can each
// apply the same writes to their own rows.
func twinDB(db *catalog.Database) *catalog.Database {
	t := db.MustTable("t")
	out := catalog.NewDatabase(db.Name)
	out.AddTable(&catalog.Table{Name: t.Name, Schema: t.Schema, Rows: append([]storage.Row(nil), t.Rows...)})
	return out
}

// pathBudget is the absolute decode budget of a single-table query: the rows
// held by the pages its plan path visits (the structure's page range, plus
// the heap's rows when the path looks them up there), and the number of
// distinct columns a page decode may touch (needed ∪ predicated, plus the
// structure's RID).
func pathBudget(t *testing.T, st *Store, q *workload.Query, needed []string) (rows, cols int64) {
	t.Helper()
	plan, err := st.planFor(workload.Statement{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	r, err := st.route(plan, "t", needed)
	if err != nil {
		t.Fatal(err)
	}
	for p := r.lo; p < r.hi; p++ {
		rows += int64(r.h.si.Seg.PageRows(p))
	}
	if r.lookup {
		rows += st.heaps["t"].si.Seg.Rows()
	}
	touched := map[string]bool{"__rid": true}
	for _, c := range needed {
		touched[strings.ToLower(c)] = true
	}
	for _, p := range q.Preds {
		touched[strings.ToLower(p.Col)] = true
	}
	return rows, int64(len(touched))
}

// namedCols lists the columns of the single table "t" a query names (SELECT *
// names them all).
func namedCols(s *storage.Schema, q *workload.Query) []string {
	if len(q.Aggs) == 0 && len(q.GroupBy) == 0 && len(q.Select) == 0 {
		return s.Names()
	}
	return q.ColumnsOn("t", func(_, col string) bool { return s.Has(col) })
}

// TestStreamingMatchesOracleRandomized is the property test for the
// executor: over random schemas, physical designs (no structures, every
// uniform method, random mixed vectors) and statement sequences, the store
// must return byte-identical results to the plain-row oracle — writes
// included, so later queries read rebuilt segments — within absolute decode
// budgets: never more tuples than the pages its access path visits hold,
// never more columns per page than the statement names.
func TestStreamingMatchesOracleRandomized(t *testing.T) {
	tables, stmts := 6, 30
	if testing.Short() {
		tables, stmts = 2, 10
	}
	all := []compress.Method{compress.None, compress.Row, compress.Page, compress.GlobalDict, compress.RLE}
	rng := rand.New(rand.NewSource(23))
	for ti := 0; ti < tables; ti++ {
		base, gens := randomStreamTable(rng, 500+rng.Intn(600))
		s := base.MustTable("t").Schema
		designs := [][]*index.Def{nil}
		for _, m := range all {
			designs = append(designs, randomStreamDesign(rng, s, m, nil))
		}
		designs = append(designs,
			randomStreamDesign(rng, s, compress.Row, all),
			randomStreamDesign(rng, s, compress.Page, []compress.Method{compress.GlobalDict, compress.RLE, compress.Page}))
		for di, defs := range designs {
			oracleDB, storeDB := twinDB(base), twinDB(base)
			st, err := NewStore(storeDB, defs)
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < stmts; qi++ {
				label := fmt.Sprintf("table %d design %d statement %d", ti, di, qi)
				rows := oracleDB.MustTable("t").Rows
				if len(rows) == 0 {
					break // the deletes emptied the table
				}
				if qi%5 == 4 {
					w := randomStreamWrite(rng, s, rows, gens)
					var got, want int64
					var io IOStats
					var werr, gerr error
					if w.Update != nil {
						want, werr = RunUpdate(oracleDB, w.Update)
						got, io, gerr = st.RunUpdate(w.Update)
					} else {
						want, werr = RunDelete(oracleDB, w.Delete)
						got, io, gerr = st.RunDelete(w.Delete)
					}
					if werr != nil || gerr != nil {
						t.Fatalf("%s: write: oracle %v, store %v", label, werr, gerr)
					}
					if got != want {
						t.Fatalf("%s: wrote %d rows, oracle %d", label, got, want)
					}
					if io.TuplesDecoded < got {
						t.Fatalf("%s: wrote %d rows having located only %d", label, got, io.TuplesDecoded)
					}
					continue
				}
				q := randomStreamQuery(rng, s, rows, gens)
				want, err := Run(oracleDB, q)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				maxRows, maxCols := pathBudget(t, st, q, namedCols(s, q))
				got, err := st.RunQuery(q)
				if err != nil {
					t.Fatalf("%s: store: %v", label, err)
				}
				assertResultsIdentical(t, label, got, want)
				if got.IO.TuplesDecoded > maxRows {
					t.Fatalf("%s: decoded %d tuples, the pages of %v hold %d",
						label, got.IO.TuplesDecoded, got.Paths, maxRows)
				}
				if got.IO.ColumnsDecoded > got.IO.PagesDecoded*maxCols {
					t.Fatalf("%s: decoded %d column payloads on %d pages, the statement names %d columns",
						label, got.IO.ColumnsDecoded, got.IO.PagesDecoded, maxCols)
				}
			}
		}
	}
}

// TestStreamingDecodeBudget pins the point of pushdown with a deterministic
// selective query: a single-column equality filter over a scan must decode
// fewer than half of the rows on the pages it visits — in fact only the
// qualifying ones — and no column beyond the predicated and the projected
// one, under every method.
func TestStreamingDecodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cols := []storage.Column{
		{Name: "k", Kind: storage.KindInt},
		{Name: "grp", Kind: storage.KindInt},
		{Name: "price", Kind: storage.KindFloat, Nullable: true},
		{Name: "tag", Kind: storage.KindString, FixedWidth: 10, Nullable: true},
	}
	s := storage.NewSchema(cols...)
	rows := make([]storage.Row, 4000)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.IntVal(int64(rng.Intn(50))),
			storage.FloatVal(float64(rng.Intn(100)) / 2),
			storage.StringVal(fmt.Sprintf("TAG-%03d", rng.Intn(30))),
		}
	}
	db := catalog.NewDatabase("stream_budget")
	db.AddTable(&catalog.Table{Name: "t", Schema: s, Rows: rows})
	q := &workload.Query{
		Tables: []string{"t"},
		Preds:  []workload.Predicate{{Col: "grp", Op: workload.OpEq, Lo: storage.IntVal(7)}},
		Select: []workload.ColRef{{Table: "t", Col: "price"}},
	}
	want, err := Run(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []compress.Method{compress.None, compress.Row, compress.Page, compress.GlobalDict, compress.RLE} {
		st, err := NewStore(db, []*index.Def{{Table: "t", KeyCols: []string{"k"}, Clustered: true, Method: m}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, "budget/"+m.String(), got, want)
		if got.IO.TuplesDecoded != int64(len(want.Rows)) || got.IO.TuplesDecoded*2 >= int64(len(rows)) {
			t.Fatalf("%s: selective filter decoded %d tuples for %d qualifying of %d scanned rows — pushdown not effective",
				m, got.IO.TuplesDecoded, len(want.Rows), len(rows))
		}
		if got.IO.ColumnsDecoded > 2*got.IO.PagesDecoded {
			t.Fatalf("%s: selective filter touched %d column payloads on %d pages, the statement names 2 columns",
				m, got.IO.ColumnsDecoded, got.IO.PagesDecoded)
		}
	}
}

// TestWriteLocateReadsWithinEagerBaseline holds the streaming write locate to
// the page reads the eager locate it replaced counted on the TPC-H update
// mix (4 000 lineitem rows, seed 11, statements in workload order): equal on
// scans and clustered seeks, lower on D2's index seek + lookup, where the
// eager path charged a heap page per RID and the RID cursor charges each
// page once.
func TestWriteLocateReadsWithinEagerBaseline(t *testing.T) {
	eager := map[string][2]int64{ // label -> {heaps only, tpchDesign}
		"U1": {73, 2}, "U2": {73, 3}, "U3": {73, 2}, "U4": {15, 16}, "U5": {2, 2}, "D1": {73, 1}, "D2": {15, 32},
	}
	cfg := datagen.TPCHConfig{LineitemRows: 4000, Seed: 11}
	for di, defs := range [][]*index.Def{nil, tpchDesign()} {
		st, err := NewStore(datagen.NewTPCH(cfg), defs)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range workloads.MustTPCHWithUpdates().Statements {
			var io IOStats
			switch {
			case s.Update != nil:
				_, io, err = st.RunUpdate(s.Update)
			case s.Delete != nil:
				_, io, err = st.RunDelete(s.Delete)
			default:
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", s.Label, err)
			}
			base, ok := eager[s.Label]
			if !ok {
				t.Fatalf("%s: no eager baseline recorded", s.Label)
			}
			if io.PageReads > base[di] {
				t.Errorf("design %d %s: locate read %d pages, the eager locate read %d", di, s.Label, io.PageReads, base[di])
			}
			if di == 1 && s.Label == "D2" && io.PageReads*2 > base[di] {
				t.Errorf("D2: index seek + lookup read %d pages, expected under half of the eager %d", io.PageReads, base[di])
			}
		}
	}
}
