package optimizer

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// whatIfCase is a database, a workload with all four statement kinds, and a
// candidate pool shaped like the advisor's: per statement the key, covering,
// clustered and partial structures its predicates suggest plus the MV that
// mirrors it, each under NONE/ROW/PAGE and one mixed per-column design, and
// duplicate HypoIndex copies of the clustered indexes (the same structure
// reached through two pointers).
type whatIfCase struct {
	name string
	db   *catalog.Database
	wl   *workload.Workload
	pool []*HypoIndex
}

var (
	whatIfOnce  sync.Once
	whatIfCases []*whatIfCase
)

func testCases(t testing.TB) []*whatIfCase {
	whatIfOnce.Do(func() {
		tpch := &whatIfCase{name: "tpch", db: testDB(t), wl: workloads.MustTPCHWithUpdates()}
		sales := &whatIfCase{name: "sales",
			db: datagen.NewSales(datagen.SalesConfig{FactRows: 4000, Zipf: 0.8, Seed: 5}),
			wl: workloads.MustSalesWithUpdates(1)}
		for _, c := range []*whatIfCase{tpch, sales} {
			c.wl.Statements = append(c.wl.Statements,
				&workload.Statement{Insert: &workload.Insert{Table: c.db.Tables()[0].Name, Rows: 300}, Weight: 2, Label: "LOAD"})
			c.pool = candidatePool(c.db, c.wl, rand.New(rand.NewSource(11)))
			whatIfCases = append(whatIfCases, c)
		}
	})
	return whatIfCases
}

// candidatePool derives the pool. Sizes come from the column statistics with
// a seeded jitter instead of sample builds: the cost model only needs
// plausible, varied numbers.
func candidatePool(db *catalog.Database, wl *workload.Workload, rng *rand.Rand) []*HypoIndex {
	has := func(table, col string) bool {
		t := db.Table(table)
		return t != nil && t.Schema.Has(col)
	}
	seen := map[string]bool{}
	var structures []*index.Def
	add := func(d *index.Def) {
		if len(d.KeyCols) == 0 {
			return
		}
		if id := d.StructureID(); !seen[id] {
			seen[id] = true
			structures = append(structures, d)
		}
	}
	for _, t := range db.Tables() {
		if len(t.PK) > 0 {
			add(&index.Def{Table: t.Name, KeyCols: t.PK[:1], Clustered: true})
		}
	}
	for _, s := range wl.Statements {
		q := s.Query
		if q == nil {
			table, _ := s.WriteTable()
			if q = (&workload.Query{Tables: []string{table}, Preds: s.WritePreds()}); len(q.Preds) == 0 {
				continue
			}
		}
		for _, table := range q.Tables {
			preds, used := q.PredsOn(table, has), q.ColumnsOn(table, has)
			var keys []string
			for _, p := range preds {
				if p.Sargable() && !containsFold(keys, p.Col) {
					keys = append(keys, p.Col)
				}
			}
			if len(keys) == 0 {
				continue
			}
			var include []string
			for _, c := range used {
				if !containsFold(keys, c) {
					include = append(include, c)
				}
			}
			add(&index.Def{Table: table, KeyCols: keys})
			add(&index.Def{Table: table, KeyCols: keys, IncludeCols: include})
			add(&index.Def{Table: table, KeyCols: keys[:1], Clustered: true})
			if len(keys) >= 2 {
				add(&index.Def{Table: table, KeyCols: keys[1:], IncludeCols: include, Where: preds[:1]})
			}
		}
		if len(q.GroupBy) > 0 && len(q.Aggs) > 0 {
			mv := &index.MVDef{Name: fmt.Sprintf("mv_%d", len(structures)), Fact: q.Tables[0],
				Joins: q.Joins, GroupBy: q.GroupBy, Aggs: q.Aggs}
			for _, p := range q.Preds {
				if !colRefIn(q.GroupBy, workload.ColRef{Col: p.Col}) {
					mv.Where = append(mv.Where, p)
				}
			}
			d := &index.Def{Table: mv.Name, MV: mv, IncludeCols: []string{"__count"}}
			for _, g := range q.GroupBy {
				d.KeyCols = append(d.KeyCols, index.QualifiedCol(g))
			}
			add(d)
		}
	}

	var pool []*HypoIndex
	for _, d := range structures {
		rows, width := int64(50+rng.Intn(400)), 8.0*float64(len(d.Columns())+1)
		if d.MV == nil {
			t := db.Table(d.Table)
			rows, width = t.RowCount(), 8
			cols := d.Columns()
			if d.Clustered {
				cols = t.Schema.Names()
			}
			for _, c := range cols {
				width += t.Stats().Col(c).AvgWidth
			}
			if d.IsPartial() {
				rows = int64(float64(rows) * CombinedSelectivity(t, d.Where))
			}
		}
		unc := int64(float64(rows) * width)
		sized := func(v *index.Def, cf float64) *HypoIndex {
			return NewHypoIndex(v, rows, int64(float64(unc)*cf*(0.9+0.2*rng.Float64())), unc)
		}
		page := d.WithMethod(compress.Page)
		variants := []*HypoIndex{
			sized(d.Uncompressed(), 1),
			sized(d.WithMethod(compress.Row), 0.65),
			sized(page, 0.4),
			sized(page.WithColMethod(d.KeyCols[0], compress.GlobalDict), 0.35),
		}
		pool = append(pool, variants...)
		if d.Clustered {
			dup := *variants[1]
			pool = append(pool, &dup)
		}
	}
	return pool
}

// mutate applies one random With / Replace / Without to cfg, returning the
// neighbor and the indexes the edit touched.
func mutate(rng *rand.Rand, cfg *Configuration, pool []*HypoIndex) (*Configuration, []*HypoIndex) {
	members := cfg.Indexes()
	pick := pool[rng.Intn(len(pool))]
	switch op := rng.Intn(4); {
	case len(members) == 0 || op <= 1:
		return cfg.With(pick), []*HypoIndex{pick}
	case op == 2:
		old := members[rng.Intn(len(members))]
		if rng.Intn(2) == 0 {
			// Prefer swapping in another variant of the same structure, the
			// move backtracking and refinement make.
			for _, h := range pool {
				if h != old && h.StructureID() == old.StructureID() && rng.Intn(2) == 0 {
					pick = h
					break
				}
			}
		}
		return cfg.Replace(old, pick), []*HypoIndex{old, pick}
	default:
		old := members[rng.Intn(len(members))]
		return cfg.Without(old), []*HypoIndex{old}
	}
}

func comparePlans(t *testing.T, where string, got, want *Plan) {
	t.Helper()
	if got.Total != want.Total || got.Note != want.Note || len(got.Paths) != len(want.Paths) ||
		got.EstimatedPageReads() != want.EstimatedPageReads() {
		t.Fatalf("%s:\n got  %v (total %v, reads %v)\n want %v (total %v, reads %v)", where,
			got, got.Total, got.EstimatedPageReads(), want, want.Total, want.EstimatedPageReads())
	}
	for i := range got.Paths {
		if !reflect.DeepEqual(got.Paths[i], want.Paths[i]) {
			t.Fatalf("%s: path %d:\n got  %+v\n want %+v", where, i, got.Paths[i], want.Paths[i])
		}
	}
}

// TestPriceMatchesReferencePlanSearch is the differential test for the whole
// what-if path: over random With/Replace/Without chains, every statement's
// Plan — total, every field of every access path, estimated page reads —
// must equal the reference plan search bit for bit, and the Evaluator's
// delta totals must equal the reference summed in statement order.
func TestPriceMatchesReferencePlanSearch(t *testing.T) {
	for _, c := range testCases(t) {
		cm := NewCostModel(c.db)
		rng := rand.New(rand.NewSource(29))
		refTotal := func(cfg *Configuration) float64 {
			var total float64
			for _, s := range c.wl.Statements {
				total += s.Weight * cm.refPlan(s, cfg).Total
			}
			return total
		}
		chains, steps := 12, 10
		if testing.Short() {
			chains = 4
		}
		for chain := 0; chain < chains; chain++ {
			cfg := NewConfiguration()
			for i := rng.Intn(6); i > 0; i-- {
				cfg = cfg.With(c.pool[rng.Intn(len(c.pool))])
			}
			ev := NewEvaluator(cm, c.wl, cfg, nil)
			for step := 0; step < steps; step++ {
				where := fmt.Sprintf("%s chain %d step %d", c.name, chain, step)
				for _, s := range c.wl.Statements {
					comparePlans(t, where+" "+s.Label+" under "+cfg.String(), cm.Plan(s, cfg), cm.refPlan(s, cfg))
				}
				if got, want := ev.Total(), refTotal(cfg); got != want {
					t.Fatalf("%s: evaluator total %v, reference %v", where, got, want)
				}
				add := c.pool[rng.Intn(len(c.pool))]
				if next, got := ev.CostWithAdd(add); got != refTotal(next) {
					t.Fatalf("%s: CostWithAdd(%s) = %v, reference %v", where, add.Def, got, refTotal(next))
				}
				if members := cfg.Indexes(); len(members) > 0 {
					old, repl := members[rng.Intn(len(members))], c.pool[rng.Intn(len(c.pool))]
					if next, got := ev.CostWithReplace(old, repl); got != refTotal(next) {
						t.Fatalf("%s: CostWithReplace(%s -> %s) = %v, reference %v", where, old.Def, repl.Def, got, refTotal(next))
					}
				}
				var touched []*HypoIndex
				cfg, touched = mutate(rng, cfg, c.pool)
				ev = ev.Advance(cfg, touched...)
			}
		}
	}
}

// TestMemoHammer prices overlapping (statement, structure) pairs from many
// goroutines against a cold memo and compares every result with a serial
// run on a fresh model. Run with -race.
func TestMemoHammer(t *testing.T) {
	for _, c := range testCases(t) {
		rng := rand.New(rand.NewSource(3))
		cfgs := make([]*Configuration, 24)
		for i := range cfgs {
			cfgs[i] = NewConfiguration()
			for n := 1 + rng.Intn(8); n > 0; n-- {
				cfgs[i] = cfgs[i].With(c.pool[rng.Intn(len(c.pool))])
			}
		}
		serial := NewCostModel(c.db)
		want := make([][]float64, len(cfgs))
		for i, cfg := range cfgs {
			for _, s := range c.wl.Statements {
				want[i] = append(want[i], serial.Cost(s, cfg))
			}
		}

		cm := NewCostModel(c.db)
		const workers = 8
		got := make([][][]float64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = make([][]float64, len(cfgs))
				// Each worker starts at a different configuration so the
				// first touches of a term collide across workers.
				for k := range cfgs {
					i := (k + w*3) % len(cfgs)
					ev := NewEvaluator(cm, c.wl, cfgs[i], nil)
					ev.CostWithAdd(c.pool[(i+w)%len(c.pool)])
					for _, s := range c.wl.Statements {
						got[w][i] = append(got[w][i], cm.Cost(s, cfgs[i]))
					}
				}
			}(w)
		}
		wg.Wait()
		for w := range got {
			for i := range cfgs {
				for si, s := range c.wl.Statements {
					if got[w][i][si] != want[i][si] {
						t.Fatalf("%s: worker %d, %s under %s: %v, serial %v", c.name, w, s.Label, cfgs[i], got[w][i][si], want[i][si])
					}
				}
			}
		}
	}
}

// TestWhatIfAllocBudget pins what a warm what-if allocates: the neighbor's
// Configuration node, and nothing that grows with the workload or the
// configuration — which also means nothing on that path builds a string.
func TestWhatIfAllocBudget(t *testing.T) {
	const budget = 1 // allocations per call: the Configuration node
	for _, c := range testCases(t) {
		cm := NewCostModel(c.db)
		rng := rand.New(rand.NewSource(5))
		cfg := NewConfiguration()
		for i := 0; i < 20; i++ {
			cfg = cfg.With(c.pool[rng.Intn(len(c.pool))])
		}
		ev := NewEvaluator(cm, c.wl, cfg, nil)
		members := cfg.Indexes()
		sweep := func() {
			for i, h := range c.pool {
				ev.CostWithAdd(h)
				ev.CostWithReplace(members[i%len(members)], h)
			}
		}
		sweep() // warm: every term the sweep needs is now memoized
		perCall := testing.AllocsPerRun(5, sweep) / float64(2*len(c.pool))
		if perCall > budget {
			t.Fatalf("%s: %.2f allocations per warm what-if, budget %d", c.name, perCall, budget)
		}
	}
}

// BenchmarkWhatIf is a warm CostWithAdd sweep over the candidate pool.
func BenchmarkWhatIf(b *testing.B) {
	for _, c := range testCases(b) {
		b.Run(c.name, func(b *testing.B) {
			cm := NewCostModel(c.db)
			ev := NewEvaluator(cm, c.wl, NewConfiguration(c.pool[:16]...), nil)
			for _, h := range c.pool {
				ev.CostWithAdd(h) // warm the memo
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				ev.CostWithAdd(c.pool[i%len(c.pool)])
			}
		})
	}
}
