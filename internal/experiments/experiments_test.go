package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"cadb/internal/datagen"
	"cadb/internal/workloads"
)

// parsePct converts "12.3%" to 0.123.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad pct %q: %v", s, err)
	}
	return v / 100
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func TestTable1ShapeAEBeatsBaselines(t *testing.T) {
	rep := Table1(QuickScale())
	summary := rep.Tables[1]
	if len(summary.Rows) != 1 {
		t.Fatalf("summary rows=%d", len(summary.Rows))
	}
	opt := parsePct(t, summary.Rows[0][0])
	mult := parsePct(t, summary.Rows[0][1])
	ae := parsePct(t, summary.Rows[0][2])
	if !(ae < opt && opt < mult) {
		t.Fatalf("shape violated: AE=%v Optimizer=%v Multiply=%v (want AE < Opt < Mult)", ae, opt, mult)
	}
	if ae > 0.3 {
		t.Fatalf("AE error too large: %v", ae)
	}
}

func TestFig9ShapeErrorsShrinkWithF(t *testing.T) {
	rep := Fig9(QuickScale())
	rows := rep.Tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("rows=%d", len(rows))
	}
	// LD-Stddev (col 2) at f=1% must exceed LD-Stddev at f=10%.
	first := parsePct(t, rows[0][2])
	last := parsePct(t, rows[len(rows)-1][2])
	if first <= last {
		t.Fatalf("LD stddev should shrink with f: %v -> %v", first, last)
	}
	// NS bias (col 3) stays small everywhere.
	for _, r := range rows {
		if b := parsePct(t, r[3]); b > 0.1 || b < -0.1 {
			t.Fatalf("NS bias should be near zero, got %v", b)
		}
	}
}

func TestTable4ShapeGreedyBetweenOptimalAndAll(t *testing.T) {
	rep := Table4(QuickScale())
	for _, r := range rep.Tables[0].Rows {
		all := parseF(t, r[1])
		greedy := parseF(t, r[2])
		if greedy > all {
			t.Fatalf("greedy (%v) must not exceed all (%v)", greedy, all)
		}
		if r[3] != "-" {
			opt := parseF(t, r[3])
			if opt > greedy+1e-9 {
				t.Fatalf("optimal (%v) must not exceed greedy (%v)", opt, greedy)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", QuickScale(), &buf); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunRendersReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", QuickScale(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== table1", "Optimizer", "AE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig12ShapeDTAcBeatsDTAAtTightBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("advisor-variant sweep in -short mode")
	}
	sc := QuickScale()
	sc.Budgets = []float64{0.08}
	rep := Fig12(sc)
	row := rep.Tables[0].Rows[0]
	// Columns: budget, DTAc(Both), Skyline, Backtrack, DTAc(None), DTA.
	both := parseF(t, row[1])
	dta := parseF(t, row[5])
	if both < dta {
		t.Fatalf("DTAc(Both)=%v must be >= DTA=%v at tight budget", both, dta)
	}
}

func TestMotivatingIntegratedAtLeastStaged(t *testing.T) {
	if testing.Short() {
		t.Skip("integrated-vs-staged advisor sweep in -short mode")
	}
	rep := Motivating(QuickScale())
	for _, tb := range rep.Tables {
		for _, r := range tb.Rows {
			integrated := parseF(t, r[1])
			staged := parseF(t, r[2])
			if staged > integrated+1.5 {
				t.Fatalf("staged (%v) should not beat integrated (%v): %v", staged, integrated, r)
			}
		}
	}
}

// TestMixedDesignBeatsUniform pins ext-methods' second table: on the
// select-intensive TPC-H workload a per-column design of one structure beats
// that structure under every uniform method on total cost — including each
// single-method restriction the advisor had before design vectors.
func TestMixedDesignBeatsUniform(t *testing.T) {
	sc := QuickScale()
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Seed: sc.Seed})
	costs, err := mixedVsUniform(db, workloads.SelectIntensive(workloads.MustTPCH()))
	if err != nil {
		t.Fatal(err)
	}
	perColumn := costs[len(costs)-1]
	for _, c := range costs[:len(costs)-1] {
		if !(perColumn.TotalCost < c.TotalCost) {
			t.Errorf("%s design (%.1f) must beat %s (%.1f) on total cost",
				perColumn.Label, perColumn.TotalCost, c.Label, c.TotalCost)
		}
	}
}

// TestFig11ShapeDeductionCutsEstimationCost pins fig11's claim beside its
// golden: DTAc with deduction spends fewer estimation cost units than DTAc
// without it.
func TestFig11ShapeDeductionCutsEstimationCost(t *testing.T) {
	if testing.Short() {
		t.Skip("two advisor runs in -short mode")
	}
	rows := Fig11(QuickScale()).Tables[0].Rows
	// Rows: without deduction, with deduction; the last column is the cost.
	without := parseF(t, rows[0][len(rows[0])-1])
	with := parseF(t, rows[1][len(rows[1])-1])
	if !(with < without) {
		t.Fatalf("deduction must cut estimation cost: %v with vs %v without", with, without)
	}
}

// TestFigs12To17ShapeDTAcAtLeastDTA pins the paper's headline claim beside
// the goldens of Figures 12–17: at every budget, the compression-aware
// advisor's improvement is at least the compression-oblivious one's.
func TestFigs12To17ShapeDTAcAtLeastDTA(t *testing.T) {
	if testing.Short() {
		t.Skip("six advisor sweeps in -short mode")
	}
	for i, fig := range []func(Scale) *Report{Fig12, Fig13, Fig14, Fig15, Fig16, Fig17} {
		// Columns: budget, DTAc (Both in the ablations), ..., DTA last.
		for _, r := range fig(QuickScale()).Tables[0].Rows {
			if dtac, dta := parseF(t, r[1]), parseF(t, r[len(r)-1]); dtac < dta {
				t.Errorf("fig%d at budget %s: DTAc %v < DTA %v", 12+i, r[0], dtac, dta)
			}
		}
	}
}

// TestFig10ShapeNSBelowLD pins fig10's and table3's claim beside their
// goldens: at a = 2 and 3 the order-independent ColExt (NS) deduction is
// less biased than the order-dependent one (LD), and table3's linear fit of
// the NS bias stays within the paper's ±0.01a band (DefaultErrorModel
// assumes 0.003a).
func TestFig10ShapeNSBelowLD(t *testing.T) {
	abs := func(v float64) float64 { return max(v, -v) }
	// Rows: a = 2, 3, 4; columns: a, NS-Bias, NS-Stddev, LD-Bias, LD-Stddev.
	for _, r := range Fig10(QuickScale()).Tables[0].Rows[:2] {
		if ns, ld := parsePct(t, r[1]), parsePct(t, r[3]); !(abs(ns) < abs(ld)) {
			t.Errorf("fig10 at a=%s: |NS bias| %v must be below |LD bias| %v", r[0], ns, ld)
		}
	}
	// Rows: ColExt(NS), ColExt(LD), ColSet(NS); the bias column reads "+0.0021 a".
	row := Table3(QuickScale()).Tables[0].Rows[0]
	if c := parseF(t, strings.TrimSuffix(row[1], " a")); abs(c) > 0.01 {
		t.Errorf("table3 ColExt(NS) bias %v·a outside the paper's ±0.01a", c)
	}
}
