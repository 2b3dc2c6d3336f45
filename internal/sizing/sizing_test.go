package sizing

import (
	"sync"
	"testing"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/sampling"
)

var (
	dbOnce sync.Once
	db     *catalog.Database
)

func testDB() *catalog.Database {
	dbOnce.Do(func() {
		db = datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 8000, Seed: 41})
	})
	return db
}

func newEst(f float64) *Estimator {
	return NewEstimator(testDB(), sampling.NewManager(testDB(), f, 5))
}

func liDef(m compress.Method, cols ...string) *index.Def {
	return (&index.Def{Table: "lineitem", KeyCols: cols}).WithMethod(m)
}

// A small target family: composite ROW-compressed indexes sharing columns.
func rowTargets() []*index.Def {
	return []*index.Def{
		liDef(compress.Row, "l_shipdate", "l_shipmode"),
		liDef(compress.Row, "l_shipdate", "l_shipmode", "l_quantity"),
		liDef(compress.Row, "l_shipmode"),
	}
}

func TestGreedyUsesDeductionsUnderLooseConstraint(t *testing.T) {
	est := newEst(0.05)
	p := Greedy(est, rowTargets(), nil, 1.0, 0.8, 0.05)
	if !p.Feasible {
		t.Fatalf("plan infeasible: %s", p.Describe())
	}
	deduced := 0
	for _, n := range p.Nodes {
		if n.Target && n.State == StateDeduced {
			deduced++
		}
	}
	if deduced == 0 {
		t.Fatalf("loose constraint should allow deductions:\n%s", p.Describe())
	}
	all := All(newEst(0.05), rowTargets(), nil, 1.0, 0.8, 0.05)
	if p.TotalCost >= all.TotalCost {
		t.Fatalf("greedy cost %v must undercut all-sampled %v", p.TotalCost, all.TotalCost)
	}
}

func TestGreedyFallsBackToSamplingUnderTightConstraint(t *testing.T) {
	est := newEst(0.1)
	// Very tight error budget: deductions (which add bias/σ) are rejected.
	p := Greedy(est, rowTargets(), nil, 0.05, 0.99, 0.1)
	for _, n := range p.Nodes {
		if n.Target && n.State == StateDeduced {
			t.Fatalf("tight constraint must forbid deductions:\n%s", p.Describe())
		}
	}
}

func TestGreedyNeverViolatesUnlessAllDoes(t *testing.T) {
	// Paper: "Greedy never violates the accuracy constraint unless even All
	// does."
	for _, f := range []float64{0.01, 0.05, 0.1} {
		for _, e := range []float64{0.2, 0.5, 1.0} {
			g := Greedy(newEst(f), rowTargets(), nil, e, 0.9, f)
			a := All(newEst(f), rowTargets(), nil, e, 0.9, f)
			if !g.Feasible && a.Feasible {
				t.Fatalf("f=%v e=%v: greedy infeasible while All feasible", f, e)
			}
		}
	}
}

func TestOptimalAtMostGreedy(t *testing.T) {
	targets := rowTargets()
	g := Greedy(newEst(0.05), targets, nil, 0.5, 0.9, 0.05)
	o, ok := Optimal(newEst(0.05), targets, nil, 0.5, 0.9, 0.05, 0)
	if !ok {
		t.Fatal("optimal should handle this universe size")
	}
	if o.TotalCost > g.TotalCost+1e-9 {
		t.Fatalf("optimal %v worse than greedy %v", o.TotalCost, g.TotalCost)
	}
	if g.Feasible && !o.Feasible {
		t.Fatal("optimal infeasible while greedy feasible")
	}
}

func TestOptimalRefusesHugeUniverse(t *testing.T) {
	var targets []*index.Def
	cols := []string{"l_shipdate", "l_shipmode", "l_quantity", "l_partkey", "l_suppkey", "l_returnflag"}
	for i := range cols {
		for j := range cols {
			if i != j {
				targets = append(targets, liDef(compress.Row, cols[i], cols[j]))
			}
		}
	}
	if _, ok := Optimal(newEst(0.05), targets, nil, 0.5, 0.9, 0.05, 10); ok {
		t.Fatal("optimal must refuse a universe above the cap")
	}
}

func TestExistingIndexesAreFree(t *testing.T) {
	existing := []*index.Def{liDef(compress.Row, "l_shipdate", "l_shipmode")}
	targets := []*index.Def{liDef(compress.Row, "l_shipmode", "l_shipdate")}
	est := newEst(0.05)
	// Register the existing index's exact size.
	phys, err := index.Build(testDB(), existing[0])
	if err != nil {
		t.Fatal(err)
	}
	est.PutExact(phys)
	p := Greedy(est, targets, existing, 0.5, 0.9, 0.05)
	if p.TotalCost != 0 {
		t.Fatalf("colset deduction from an existing index should be free:\n%s", p.Describe())
	}
	n := p.ByID[targets[0].ID()]
	if n == nil || n.State != StateDeduced {
		t.Fatalf("target should be DEDUCED from the existing permutation:\n%s", p.Describe())
	}
}

func TestColSetNotOfferedForOrdDep(t *testing.T) {
	existing := []*index.Def{liDef(compress.Page, "l_shipdate", "l_shipmode")}
	targets := []*index.Def{liDef(compress.Page, "l_shipmode", "l_shipdate")}
	est := newEst(0.05)
	phys, err := index.Build(testDB(), existing[0])
	if err != nil {
		t.Fatal(err)
	}
	est.PutExact(phys)
	p := Greedy(est, targets, existing, 0.5, 0.9, 0.05)
	n := p.ByID[targets[0].ID()]
	if n.State == StateDeduced && n.Chosen.Kind == DeduceColSet {
		t.Fatal("ColSet must not apply to PAGE (ORD-DEP) indexes")
	}
}

func TestSweepPicksCheapestFeasible(t *testing.T) {
	plan, est := Sweep(sampling.NewStore(testDB(), 7), rowTargets(), true, 0.5, 0.9, 1)
	if plan == nil || est == nil {
		t.Fatal("sweep returned nothing")
	}
	if !plan.Feasible {
		t.Fatalf("sweep should find a feasible plan: %s", plan.Describe())
	}
	if plan.TotalCost <= 0 {
		t.Fatal("plan cost must be positive (something gets sampled)")
	}
}

func TestExecuteProducesEstimates(t *testing.T) {
	targets := rowTargets()
	plan, est := Sweep(sampling.NewStore(testDB(), 7), targets, true, 0.5, 0.9, 1)
	got, err := Execute(est, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range targets {
		e, ok := got[d.ID()]
		if !ok {
			t.Fatalf("missing estimate for %s", d)
		}
		truth, err := index.Build(testDB(), d)
		if err != nil {
			t.Fatal(err)
		}
		re := float64(e.Bytes-truth.Bytes) / float64(truth.Bytes)
		if re < 0 {
			re = -re
		}
		if re > 0.5 {
			t.Errorf("%s: executed estimate err=%.2f (est %d true %d, src %s)", d, re, e.Bytes, truth.Bytes, e.Source)
		}
	}
}

func TestPlanDescribe(t *testing.T) {
	p := Greedy(newEst(0.05), rowTargets(), nil, 0.5, 0.9, 0.05)
	s := p.Describe()
	if len(s) == 0 {
		t.Fatal("empty description")
	}
}

// TestExecuteStoresDeductionFallback: when a deduced node's child is missing
// from the plan's node list, Execute falls back to SampleCF — and must store
// that estimate in the result map so a second node deducing from the same
// child reuses it, and so callers see every estimate that was produced.
func TestExecuteStoresDeductionFallback(t *testing.T) {
	est := newEst(0.05)
	child := liDef(compress.Row, "l_shipdate", "l_shipmode", "l_quantity")
	childNode := &Node{Def: child, State: StateSampled, Mean: 1, Std: 0.1}
	parent := func(cols ...string) *Node {
		return &Node{
			Def:    liDef(compress.Row, cols...),
			Target: true,
			State:  StateDeduced,
			Chosen: &Deduction{Kind: DeduceColSet, Children: []*Node{childNode}},
			Mean:   1, Std: 0.15,
		}
	}
	p1 := parent("l_shipmode", "l_shipdate", "l_quantity")
	p2 := parent("l_quantity", "l_shipdate", "l_shipmode")
	// The child is deliberately absent from Nodes: both parents depend on
	// the fallback path.
	plan := &Plan{F: 0.05, Nodes: []*Node{p1, p2}, ByID: map[string]*Node{
		p1.Def.ID(): p1, p2.Def.ID(): p2,
	}, Feasible: true}

	out, err := Execute(est, plan)
	if err != nil {
		t.Fatal(err)
	}
	ce, ok := out[child.ID()]
	if !ok || ce == nil {
		t.Fatal("fallback SampleCF estimate missing from Execute's result map")
	}
	if calls := est.Mgr.Recorder().Timing().SampleCFCalls; calls != 1 {
		t.Fatalf("child sampled %d times, want exactly once", calls)
	}
	for _, p := range []*Node{p1, p2} {
		if out[p.Def.ID()] == nil {
			t.Fatalf("parent %s missing from result", p.Def)
		}
	}
}

// TestSweepAccountsForAllGridPoints: the store's recorded PlanSolve must
// cover every f-grid point, not just the winner's own search.
func TestSweepAccountsForAllGridPoints(t *testing.T) {
	store := sampling.NewStore(testDB(), 7)
	start := time.Now()
	_, est := Sweep(store, rowTargets(), true, 0.5, 0.9, 1)
	elapsed := time.Since(start)
	if est == nil {
		t.Fatal("sweep returned no estimator")
	}
	// At one worker the grid points run back to back inside the sweep's
	// wall time, so the recorded solve time is most of it.
	if solve := store.Recorder().Timing().PlanSolve; solve <= 0 || solve > elapsed {
		t.Fatalf("recorded solve time %v, want in (0, %v]", solve, elapsed)
	}
}

// TestPlanAdmitDeducesAndAppends: Admit wires a late target into the
// executed plan — deduced when a same-column-set node is known, sampled when
// nothing in the graph helps — and appends it so later arrivals see it.
func TestPlanAdmitDeducesAndAppends(t *testing.T) {
	targets := rowTargets()
	plan, est := Sweep(sampling.NewStore(testDB(), 7), targets, true, 0.5, 0.9, 1)
	if _, err := Execute(est, plan); err != nil {
		t.Fatal(err)
	}
	before := len(plan.Nodes)

	// Permutation of an existing target: ColSet deduction applies.
	perm := liDef(compress.Row, "l_shipmode", "l_shipdate")
	n := plan.Admit(est, perm, 0.5, 0.9)
	if n.State != StateDeduced {
		t.Fatalf("permutation should deduce, got %s:\n%s", n.State, plan.Describe())
	}
	// Unrelated table: nothing to deduce from.
	cold := (&index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}}).WithMethod(compress.Row)
	cost0 := plan.TotalCost
	n2 := plan.Admit(est, cold, 0.5, 0.9)
	if n2.State != StateSampled {
		t.Fatalf("stranger should fall back to sampling, got %s", n2.State)
	}
	if plan.TotalCost <= cost0 {
		t.Fatal("sampled admission must charge its cost to the plan")
	}
	if len(plan.Nodes) != before+2 || plan.ByID[perm.ID()] != n || plan.ByID[cold.ID()] != n2 {
		t.Fatal("admitted nodes must join the plan")
	}
	// Idempotent: re-admission returns the same node.
	if plan.Admit(est, perm, 0.5, 0.9) != n {
		t.Fatal("re-admission must return the existing node")
	}
}

// TestColSetRequiresSameClustering: a secondary index over every column of a
// table has the clustered index's column set but not its layout — it carries
// a RID — so neither the planner nor DeduceColSet may deduce one from the
// other.
func TestColSetRequiresSameClustering(t *testing.T) {
	est := newEst(0.05)
	clustered := (&index.Def{Table: "orders", KeyCols: []string{"o_orderkey"}, Clustered: true}).WithMethod(compress.Row)
	secondary := (&index.Def{Table: "orders", KeyCols: testDB().MustTable("orders").Schema.Names()}).WithMethod(compress.Row)
	g := newSkeleton(est, []*index.Def{clustered, secondary}, nil).graph(est, 0.05)
	for _, d := range []*index.Def{clustered, secondary} {
		for _, ded := range g.nodes[d.ID()].Deductions {
			if ded.Kind == DeduceColSet {
				t.Errorf("%s is offered a ColSet deduction from %s", d, ded.Children[0].Def)
			}
		}
	}
	known, err := est.SampleCF(clustered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.DeduceColSet(secondary, known); err == nil {
		t.Error("DeduceColSet must reject a secondary index deduced from the clustered one")
	}
}
