package cadb

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cadb/internal/experiments"
)

func TestFacadeEndToEnd(t *testing.T) {
	db := NewTPCH(TPCHConfig{LineitemRows: 3000, Seed: 1})
	wl := SelectIntensive(TPCHWorkload())
	budget := db.TotalHeapBytes() / 4

	rec, err := Tune(db, wl, DefaultOptions(budget))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Improvement <= 0 {
		t.Fatalf("improvement=%v", rec.Improvement)
	}
	if rec.SizeBytes > budget {
		t.Fatalf("budget exceeded: %d > %d", rec.SizeBytes, budget)
	}

	dta, err := Tune(db, wl, DTAOptions(budget))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range dta.Config.Indexes() {
		if h.Def.Method != NoCompression {
			t.Fatal("DTA options must not produce compressed indexes")
		}
	}
}

func TestFacadeWorkloadParsing(t *testing.T) {
	wl, err := ParseWorkload(`
-- label: Q1 weight: 2
SELECT state, SUM(price) FROM sales WHERE orderdate >= DATE 12100 GROUP BY state;
INSERT INTO sales BULK 100;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Statements) != 2 || wl.Statements[0].Weight != 2 {
		t.Fatalf("parse result: %+v", wl.Statements)
	}
	if _, err := ParseStatement("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStatement("DROP TABLE t"); err == nil {
		t.Fatal("unsupported statement must error")
	}
}

func TestFacadeWhatIf(t *testing.T) {
	db := NewSales(SalesConfig{FactRows: 2000, Seed: 2})
	cm := NewCostModel(db)
	stmt, err := ParseStatement("SELECT SUM(price) FROM sales WHERE orderdate BETWEEN DATE 12100 AND DATE 12200")
	if err != nil {
		t.Fatal(err)
	}
	base := cm.Cost(stmt, NewConfiguration())
	phys, err := BuildIndex(db, (&IndexDef{Table: "sales", KeyCols: []string{"orderdate"}, IncludeCols: []string{"price"}}).WithMethod(PageCompression))
	if err != nil {
		t.Fatal(err)
	}
	with := cm.Cost(stmt, NewConfiguration(FromPhysical(phys)))
	if with >= base {
		t.Fatalf("covering compressed index should help: %v vs %v", with, base)
	}
}

func TestFacadeSizeEstimation(t *testing.T) {
	db := NewTPCH(TPCHConfig{LineitemRows: 4000, Seed: 3})
	targets := []*IndexDef{
		(&IndexDef{Table: "lineitem", KeyCols: []string{"l_shipdate"}}).WithMethod(RowCompression),
		(&IndexDef{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_quantity"}}).WithMethod(RowCompression),
		(&IndexDef{Table: "lineitem", KeyCols: []string{"l_quantity"}}).WithMethod(RowCompression),
	}
	plan, est := PlanEstimation(db, targets, 0.5, 0.9, 1)
	if !plan.Feasible {
		t.Fatalf("plan infeasible: %s", plan.Describe())
	}
	got, err := ExecuteEstimation(est, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range targets {
		e := got[d.ID()]
		if e == nil || e.Bytes <= 0 {
			t.Fatalf("missing estimate for %s", d)
		}
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 19 {
		t.Fatalf("experiments=%d want 19", len(ids))
	}
	var buf bytes.Buffer
	sc := QuickExperimentScale()
	sc.LineitemRows = 2000
	if err := RunExperiment("table4", sc, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Greedy") {
		t.Fatalf("unexpected report: %s", buf.String())
	}
}

// TestFacadeSegmentStore closes the loop at the facade level: tune a
// database, materialize the recommended design as a real page store, and
// run the workload's queries through it — results must match the plain-row
// oracle and report physical I/O.
func TestFacadeSegmentStore(t *testing.T) {
	db := NewTPCH(TPCHConfig{LineitemRows: 3000, Seed: 2})
	wl := SelectIntensive(TPCHWorkload())
	rec, err := Tune(db, wl, DefaultOptions(db.TotalHeapBytes()/4))
	if err != nil {
		t.Fatal(err)
	}
	var defs []*IndexDef
	for _, h := range rec.Config.Indexes() {
		defs = append(defs, h.Def)
	}
	st, err := NewSegmentStore(db, defs)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, s := range wl.Queries() {
		res, err := st.RunQuery(s.Query)
		if err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
		if len(res.Rows) > 0 && res.IO.PageReads == 0 {
			t.Fatalf("%s: rows without page reads", s.Label)
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("no queries executed")
	}

	// A recommended structure materializes within the size model's tolerance.
	for _, h := range rec.Config.Indexes() {
		if h.Def.IsMV() || h.Def.Method == GlobalDictCompression || h.Def.Method == RLECompression {
			continue
		}
		si, err := BuildSegmentIndex(db, h.Def)
		if err != nil {
			t.Fatalf("%s: %v", h.Def, err)
		}
		model, err := BuildIndex(db, h.Def)
		if err != nil {
			t.Fatalf("%s: %v", h.Def, err)
		}
		if e := si.SizeError(model); e > 0.10 || e < -0.10 {
			t.Fatalf("%s: size model off by %.1f%%", h.Def, 100*e)
		}
	}
}

func TestFacadeGenerators(t *testing.T) {
	if db := NewTPCDS(TPCDSConfig{StoreSalesRows: 1000, Seed: 1}); db.Table("store_sales") == nil {
		t.Fatal("tpcds missing fact table")
	}
	if wl := SalesWorkload(1); len(wl.Queries()) != 50 {
		t.Fatal("sales workload wrong size")
	}
	base := TPCHWorkload()
	ins := InsertIntensive(base)
	if ins.Inserts()[0].Weight <= base.Inserts()[0].Weight {
		t.Fatal("InsertIntensive must raise load weights")
	}
}

var (
	docCmdPath = regexp.MustCompile(`\bcmd/([a-z][a-z0-9-]*)`)
	docRepro   = regexp.MustCompile("cadb-repro((?:[ \t]+[^\\s`#)]+)*)")
	docDeleted = regexp.MustCompile(`BENCH_[\w*]*|cadb-bench`)
	docMember  = regexp.MustCompile(`\b(SegmentStore|PoolProfile|Options)\.([A-Z]\w*)`)
)

// docTypes are the facade types whose members a document may cite.
var docTypes = map[string]reflect.Type{
	"SegmentStore": reflect.TypeOf((*SegmentStore)(nil)),
	"PoolProfile":  reflect.TypeOf((*PoolProfile)(nil)),
	"Options":      reflect.TypeOf((*Options)(nil)),
}

// docViolations lists what a document says that the tree cannot do: a
// cmd/<name> that is not a directory, a cadb-repro invocation with a flag it
// does not have or an experiment ID that is not registered, a
// SegmentStore.X / PoolProfile.X / Options.X that is neither a method nor a
// field of that type, and any mention of the deleted harness or the files it
// wrote.
func docViolations(text string) []string {
	var out []string
	for _, m := range docCmdPath.FindAllStringSubmatch(text, -1) {
		if fi, err := os.Stat("cmd/" + m[1]); err != nil || !fi.IsDir() {
			out = append(out, m[0]+" is not a directory")
		}
	}
	ids := ExperimentIDs()
	checkIDs := func(list string) {
		for _, id := range strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == '|' }) {
			if !slices.Contains(ids, id) {
				out = append(out, fmt.Sprintf("cadb-repro experiment %q is not registered", id))
			}
		}
	}
	for _, m := range docRepro.FindAllStringSubmatch(text, -1) {
		args := strings.Fields(m[1])
		for i := 0; i < len(args); i++ {
			flag, isFlag := strings.CutPrefix(args[i], "-")
			if !isFlag {
				checkIDs(args[i])
				continue
			}
			switch flag {
			case "quick", "list":
			case "rows", "seed":
				i++ // its value
			case "exp":
				if i++; i < len(args) {
					checkIDs(args[i])
				}
			default:
				out = append(out, "cadb-repro has no flag "+args[i])
			}
		}
	}
	for _, m := range docMember.FindAllStringSubmatch(text, -1) {
		t := docTypes[m[1]]
		_, isMethod := t.MethodByName(m[2])
		_, isField := t.Elem().FieldByName(m[2])
		if !isMethod && !isField {
			out = append(out, m[0]+" is neither a method nor a field of cadb."+m[1])
		}
	}
	for _, m := range docDeleted.FindAllString(text, -1) {
		out = append(out, m+" is deleted: cite a loop-benchmark row or a cadb-repro report")
	}
	return out
}

// TestReadmeCitesWhatExists keeps README's commands runnable. The inline
// cases show each rule biting; the last row is the README itself.
func TestReadmeCitesWhatExists(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, text string
		want       int // violations
	}{
		{"existing command", "`go run ./cmd/cadb-repro -quick ext-pool`", 0},
		{"alternatives and flags", "`cadb-repro ext-pool|ext-scan -rows N` or `cadb-repro -exp fig12,fig13 -seed 7`", 0},
		{"bare name in prose", "`cadb-repro` renders the figures (`cmd/cadb-repro`)", 0},
		{"missing command", "`cmd/cadb-nothere`", 1},
		{"unknown positional ID", "`cadb-repro ext-nope`", 1},
		{"unknown -exp ID", "`cadb-repro -exp fig12,fig99`", 1},
		{"unknown flag", "`cadb-repro -pool-rows 5 ext-pool`", 2}, // the flag, then its stray value
		{"deleted harness", "`go run ./cmd/cadb-bench` writes `BENCH_pool.json`", 3},
		{"deleted files by glob", "regenerate `BENCH_*.json`", 1},
		{"real members", "`SegmentStore.SetPrefetch(8, 2)`, `Options.PoolProfile`, `cadb.PoolProfile.CapacityBytes`, `DefaultOptions.`", 0},
		{"members that do not exist", "`PoolProfile.Measured` feeds `SegmentStore.NoSuchMethod()` into `Options.Knob`", 3},
		{"BENCHMARK.json is not one of them", "`BENCHMARK.json` declares the loop benchmark", 0},
		{"README.md", string(readme), 0},
	} {
		if got := docViolations(c.text); len(got) != c.want {
			t.Errorf("%s: %d violations, want %d:\n  %s", c.name, len(got), c.want, strings.Join(got, "\n  "))
		}
	}
}

// TestOptionCounts is the ratchet on the audited configuration surface: each
// row pins how many independently settable fields a config struct has.
// Lowering a count is always fine (update the row); raising one needs the
// justification in the failure message.
func TestOptionCounts(t *testing.T) {
	for _, c := range []struct {
		name   string
		config any
		want   int
	}{
		{"core.Options", Options{}, 15},
		{"sizeest.Config", SizeOracleConfig{}, 5},
		{"optimizer.PoolProfile", PoolProfile{}, 1},
		{"experiments.ScanSweepConfig", experiments.ScanSweepConfig{}, 3},
		{"experiments.PoolSweepConfig", experiments.PoolSweepConfig{}, 6},
	} {
		if got := reflect.TypeOf(c.config).NumField(); got != c.want {
			t.Errorf("%s has %d fields, want %d: a new option needs two non-test callers that set it differently — "+
				"with one value in use make it a constant; a value the code can derive is not an option",
				c.name, got, c.want)
		}
	}
}
