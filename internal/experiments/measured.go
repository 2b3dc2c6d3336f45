package experiments

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/exec"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/storage"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// MeasuredMethods are the materializable methods the measured experiment
// sweeps: every method the advisor can recommend.
var MeasuredMethods = append([]compress.Method{compress.None}, compress.Methods...)

// MeasuredSize is one structure×method size comparison: the size model's
// estimate against the physically materialized segment.
type MeasuredSize struct {
	DB        string
	Structure string
	Method    compress.Method
	// Design labels the per-column design when the measurement is of a mixed
	// design ("MIXED(col=METHOD,...)"); empty for uniform methods.
	Design string
	// EstimatedBytes is compress.SizeRows over the leaf rows (the model).
	EstimatedBytes int64
	// MaterializedBytes is the segment's accounted payload (the bytes).
	MaterializedBytes int64
	EstimatedPages    int64
	MaterializedPages int64
}

// MethodLabel renders the method column of the measured tables: the uniform
// method name, or the per-column design.
func (m MeasuredSize) MethodLabel() string {
	if m.Design != "" {
		return m.Design
	}
	return m.Method.String()
}

// ByteErr returns the relative size-model error (estimated vs materialized).
func (m MeasuredSize) ByteErr() float64 {
	if m.MaterializedBytes == 0 {
		return 0
	}
	return float64(m.EstimatedBytes-m.MaterializedBytes) / float64(m.MaterializedBytes)
}

// MeasuredSizes materializes each structure under each method and diffs the
// size model against the segment.
func MeasuredSizes(db *catalog.Database, structures []*index.Def, methods []compress.Method) ([]MeasuredSize, error) {
	var defs []*index.Def
	for _, s := range structures {
		for _, m := range methods {
			defs = append(defs, s.WithMethod(m))
		}
	}
	return MeasuredDesignSizes(db, defs)
}

// MeasuredDesignSizes materializes each definition exactly as given —
// per-column overrides included — and diffs the design-aware size model
// against the segment. The model runs here, over the same leaf rows the
// segment is built from; segment builds themselves never pay for it.
func MeasuredDesignSizes(db *catalog.Database, defs []*index.Def) ([]MeasuredSize, error) {
	var out []MeasuredSize
	for _, d := range defs {
		schema, rows, err := index.MaterializeRows(db, d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d, err)
		}
		si, err := index.BuildSegmentOver(schema, rows, d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d, err)
		}
		model := index.BuildFromRows(schema, rows, d)
		out = append(out, MeasuredSize{
			DB:                db.Name,
			Structure:         d.StructureID(),
			Method:            d.Method,
			Design:            designLabel(d),
			EstimatedBytes:    model.Bytes,
			MaterializedBytes: si.MaterializedBytes(),
			EstimatedPages:    model.Pages,
			MaterializedPages: si.MaterializedPages(),
		})
	}
	return out, nil
}

// designLabel renders a mixed definition's design vector, default method
// first: "MIXED(ROW; col=METHOD, ...)". Empty for uniform designs.
func designLabel(d *index.Def) string {
	if !d.IsMixed() {
		return ""
	}
	cols := make([]string, 0, len(d.ColMethods))
	for c := range d.ColMethods {
		cols = append(cols, strings.ToLower(c))
	}
	sort.Strings(cols)
	parts := make([]string, 0, len(cols))
	for _, c := range cols {
		if m := d.MethodFor(c); m != d.Method {
			parts = append(parts, c+"="+m.String())
		}
	}
	return fmt.Sprintf("MIXED(%s; %s)", d.Method, strings.Join(parts, ", "))
}

// MeasuredExec is one statement's estimated-vs-counted page-read comparison,
// with the differential-correctness verdict against the plain-row oracle.
type MeasuredExec struct {
	Label string
	// EstReads is the optimizer plan's page-read estimate under the design.
	EstReads float64
	// CountedReads is the executor's physical PageReads counter.
	CountedReads   int64
	PagesDecoded   int64
	TuplesDecoded  int64
	ColumnsDecoded int64
	// Identical reports byte-identical rows (queries) or equal affected-row
	// counts (writes) against the oracle.
	Identical bool
	IsWrite   bool
}

// MeasuredExecution runs every statement of the workload through the
// segment-backed store and the plain-row oracle on twin databases (mkdb must
// be deterministic), recording estimated and counted page reads and the
// identity verdict. Write statements mutate both databases in workload
// order.
func MeasuredExecution(mkdb func() *catalog.Database, wl *workload.Workload, defs []*index.Def) ([]MeasuredExec, error) {
	oracleDB, storeDB := mkdb(), mkdb()
	st, err := exec.NewStore(storeDB, defs)
	if err != nil {
		return nil, err
	}
	cm := optimizer.NewCostModel(oracleDB)
	var hypos []*optimizer.HypoIndex
	for _, d := range defs {
		p, err := index.Build(oracleDB, d)
		if err != nil {
			return nil, err
		}
		hypos = append(hypos, optimizer.FromPhysical(p))
	}
	cfg := optimizer.NewConfiguration(hypos...)

	var out []MeasuredExec
	for _, s := range wl.Statements {
		if s.Insert != nil {
			continue // bulk loads have no executable row semantics
		}
		me := MeasuredExec{Label: s.Label, EstReads: cm.Plan(s, cfg).EstimatedPageReads()}
		switch {
		case s.Query != nil:
			want, err := exec.Run(oracleDB, s.Query)
			if err != nil {
				return nil, fmt.Errorf("%s: oracle: %w", s.Label, err)
			}
			got, err := st.RunQuery(s.Query)
			if err != nil {
				return nil, fmt.Errorf("%s: store: %w", s.Label, err)
			}
			me.CountedReads = got.IO.PageReads
			me.PagesDecoded = got.IO.PagesDecoded
			me.TuplesDecoded = got.IO.TuplesDecoded
			me.ColumnsDecoded = got.IO.ColumnsDecoded
			me.Identical = resultsIdentical(got, want)
		case s.Update != nil:
			me.IsWrite = true
			want, err := exec.RunUpdate(oracleDB, s.Update)
			if err != nil {
				return nil, fmt.Errorf("%s: oracle: %w", s.Label, err)
			}
			got, io, err := st.RunUpdate(s.Update)
			if err != nil {
				return nil, fmt.Errorf("%s: store: %w", s.Label, err)
			}
			me.CountedReads, me.PagesDecoded = io.PageReads, io.PagesDecoded
			me.TuplesDecoded, me.ColumnsDecoded = io.TuplesDecoded, io.ColumnsDecoded
			me.Identical = got == want
			// Writes invalidate the optimizer's premise too: refresh stats.
			cm.ResetCostCache()
		case s.Delete != nil:
			me.IsWrite = true
			want, err := exec.RunDelete(oracleDB, s.Delete)
			if err != nil {
				return nil, fmt.Errorf("%s: oracle: %w", s.Label, err)
			}
			got, io, err := st.RunDelete(s.Delete)
			if err != nil {
				return nil, fmt.Errorf("%s: store: %w", s.Label, err)
			}
			me.CountedReads, me.PagesDecoded = io.PageReads, io.PagesDecoded
			me.TuplesDecoded, me.ColumnsDecoded = io.TuplesDecoded, io.ColumnsDecoded
			me.Identical = got == want
			cm.ResetCostCache()
		}
		out = append(out, me)
	}
	return out, nil
}

// resultsIdentical compares two executed results byte-for-byte under the
// canonical row encoding.
func resultsIdentical(a, b *exec.Result) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Schema.Columns) != len(b.Schema.Columns) {
		return false
	}
	for i := range a.Schema.Columns {
		if !strings.EqualFold(a.Schema.Columns[i].Name, b.Schema.Columns[i].Name) {
			return false
		}
	}
	for i := range a.Rows {
		if !bytes.Equal(storage.EncodeRow(a.Schema, a.Rows[i], nil), storage.EncodeRow(b.Schema, b.Rows[i], nil)) {
			return false
		}
	}
	return true
}

// measuredTPCHStructures is a representative structure family over the TPC-H
// fact tables: clustered, plain and covering secondaries, and an MV.
func measuredTPCHStructures() []*index.Def {
	return []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_orderkey", "l_linenumber"}, Clustered: true},
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_quantity", "l_extendedprice"}},
		{Table: "lineitem", KeyCols: []string{"l_shipmode"}},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}},
		{Table: "mv_mode_rev", KeyCols: []string{"lineitem_l_shipmode"}, MV: &index.MVDef{
			Name:    "mv_mode_rev",
			Fact:    "lineitem",
			GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
			Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
		}},
	}
}

func measuredSalesStructures() []*index.Def {
	return []*index.Def{
		{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true},
		{Table: "sales", KeyCols: []string{"qty"}, IncludeCols: []string{"price"}},
		{Table: "sales", KeyCols: []string{"state"}},
	}
}

// measuredTPCHMixedDesigns are mixed per-column designs the size sweep
// materializes alongside the uniform methods: RLE where the sort order
// creates runs, GDICT on low-cardinality columns, ROW elsewhere.
func measuredTPCHMixedDesigns() []*index.Def {
	return []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_orderkey", "l_linenumber"}, Clustered: true, Method: compress.Row,
			ColMethods: map[string]compress.Method{
				"l_orderkey":   compress.RLE, // clustered order -> long runs
				"l_shipmode":   compress.GlobalDict,
				"l_returnflag": compress.GlobalDict,
				"l_linestatus": compress.GlobalDict,
			}},
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_quantity", "l_extendedprice"}, Method: compress.Row,
			ColMethods: map[string]compress.Method{
				"l_shipdate": compress.RLE, // key order -> date runs
				"l_quantity": compress.GlobalDict,
			}},
	}
}

func measuredSalesMixedDesigns() []*index.Def {
	return []*index.Def{
		{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Row,
			ColMethods: map[string]compress.Method{
				"orderdate": compress.RLE,
				"state":     compress.GlobalDict,
				"channel":   compress.GlobalDict,
			}},
	}
}

// measuredTPCHDesign is the physical design the execution comparison runs
// under (methods fixed so the per-method read error is attributable).
func measuredTPCHDesign() []*index.Def {
	return []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Page},
		{Table: "lineitem", KeyCols: []string{"l_quantity"}, IncludeCols: []string{"l_extendedprice"}, Method: compress.Row},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}, Method: compress.Row},
	}
}

func measuredSalesDesign() []*index.Def {
	return []*index.Def{
		{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Row},
		{Table: "sales", KeyCols: []string{"state"}, IncludeCols: []string{"price", "channel"}, Method: compress.Page},
	}
}

// measuredTPCHMixedExecDesign is the mixed per-column physical design the
// execution comparison runs under: every segment carries at least two
// methods, so the scenario exercises the executor's mixed-design decode path
// end to end.
func measuredTPCHMixedExecDesign() []*index.Def {
	return []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Row,
			ColMethods: map[string]compress.Method{
				"l_shipdate":   compress.RLE,
				"l_shipmode":   compress.GlobalDict,
				"l_returnflag": compress.GlobalDict,
			}},
		{Table: "lineitem", KeyCols: []string{"l_quantity"}, IncludeCols: []string{"l_extendedprice"}, Method: compress.GlobalDict,
			ColMethods: map[string]compress.Method{"l_extendedprice": compress.Row}},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}, Method: compress.Row,
			ColMethods: map[string]compress.Method{"o_orderdate": compress.RLE}},
	}
}

func measuredSalesMixedExecDesign() []*index.Def {
	return []*index.Def{
		{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Row,
			ColMethods: map[string]compress.Method{
				"orderdate": compress.RLE,
				"state":     compress.GlobalDict,
				"channel":   compress.GlobalDict,
			}},
		{Table: "sales", KeyCols: []string{"state"}, IncludeCols: []string{"price", "channel"}, Method: compress.Page,
			ColMethods: map[string]compress.Method{
				"state": compress.RLE, // key order -> one run per state
				"price": compress.Row,
			}},
	}
}

// MeasuredScenario is one execution-comparison scenario of ext-measured.
type MeasuredScenario struct {
	Name string
	Mkdb func() *catalog.Database
	WL   *workload.Workload
	Defs []*index.Def
}

// MeasuredScenarios builds the TPC-H / Sales / update-mix scenarios at the
// given scale.
func MeasuredScenarios(sc Scale) []MeasuredScenario {
	return []MeasuredScenario{
		{
			Name: "tpch/select",
			Mkdb: func() *catalog.Database { return newTPCHAt(sc) },
			WL:   workloads.SelectIntensive(workloads.MustTPCH()),
			Defs: measuredTPCHDesign(),
		},
		{
			Name: "tpch/update",
			Mkdb: func() *catalog.Database { return newTPCHAt(sc) },
			WL:   workloads.UpdateIntensive(workloads.MustTPCHWithUpdates()),
			Defs: measuredTPCHDesign(),
		},
		{
			Name: "sales/select",
			Mkdb: func() *catalog.Database { return newSalesAt(sc) },
			WL:   workloads.SelectIntensive(workloads.MustSales(sc.Seed)),
			Defs: measuredSalesDesign(),
		},
		{
			Name: "sales/update",
			Mkdb: func() *catalog.Database { return newSalesAt(sc) },
			WL:   workloads.UpdateIntensive(workloads.MustSalesWithUpdates(sc.Seed)),
			Defs: measuredSalesDesign(),
		},
		{
			Name: "tpch/mixed",
			Mkdb: func() *catalog.Database { return newTPCHAt(sc) },
			WL:   workloads.SelectIntensive(workloads.MustTPCH()),
			Defs: measuredTPCHMixedExecDesign(),
		},
		{
			Name: "sales/mixed",
			Mkdb: func() *catalog.Database { return newSalesAt(sc) },
			WL:   workloads.SelectIntensive(workloads.MustSales(sc.Seed)),
			Defs: measuredSalesMixedExecDesign(),
		},
	}
}

// DesignCost is one row of the mixed-vs-uniform comparison: the workload's
// what-if cost under one compression design of the same physical structure.
type DesignCost struct {
	Label       string
	TotalCost   float64
	Improvement float64
	Bytes       int64
	// Mixed marks the per-column design row.
	Mixed bool
}

// MixedVsUniform holds the structure fixed — a clustered ship-date index
// over the TPC-H fact table — and compares the select-intensive workload's
// what-if cost under every uniform method against a per-column design (RLE
// on the sorted date, GDICT on the low-cardinality flags, ROW elsewhere).
// Every design is physically materialized, so the sizes feeding the cost
// model are measured, not estimated. The per-column row coming in strictly
// cheapest is the design-vector payoff the issue's acceptance criterion
// demands: no single method matches runs + dictionaries + cheap decode at
// the same time.
func MixedVsUniform(sc Scale) ([]DesignCost, error) {
	db := newTPCHAt(sc)
	wl := workloads.SelectIntensive(workloads.MustTPCH())
	cm := optimizer.NewCostModel(db)
	base := cm.WorkloadCost(wl, optimizer.NewConfiguration())

	structure := &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true}
	designs := []struct {
		label string
		d     *index.Def
	}{
		{"uniform/NONE", structure.WithMethod(compress.None)},
		{"uniform/ROW", structure.WithMethod(compress.Row)},
		{"uniform/PAGE", structure.WithMethod(compress.Page)},
		{"uniform/GDICT", structure.WithMethod(compress.GlobalDict)},
		{"uniform/RLE", structure.WithMethod(compress.RLE)},
		{"per-column", &index.Def{
			Table: structure.Table, KeyCols: structure.KeyCols, Clustered: true, Method: compress.GlobalDict,
			ColMethods: map[string]compress.Method{
				// Columns where the global dictionary elects plain storage
				// anyway drop to ROW: identical bytes, cheaper decode (β).
				"l_shipdate":      compress.Row,
				"l_commitdate":    compress.Row,
				"l_receiptdate":   compress.Row,
				"l_extendedprice": compress.Row,
				// The two-valued status flag run-length-encodes below even
				// 1-byte dictionary codes, at a lower β as well.
				"l_linestatus": compress.RLE,
			},
		}},
	}
	out := make([]DesignCost, 0, len(designs))
	for _, dd := range designs {
		p, err := index.Build(db, dd.d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dd.label, err)
		}
		cfg := optimizer.NewConfiguration(optimizer.FromPhysical(p))
		cost := cm.WorkloadCost(wl, cfg)
		dc := DesignCost{Label: dd.label, TotalCost: cost, Bytes: p.Bytes, Mixed: dd.d.IsMixed()}
		if base > 0 {
			dc.Improvement = 100 * (1 - cost/base)
		}
		out = append(out, dc)
	}
	return out, nil
}

// ExtMeasured closes the measured-vs-estimated loop the rest of the system
// is built on: (1) materialize real compressed segments for a family of
// structures and diff their physical sizes against the compress.SizeRows /
// SizePages model per method; (2) run the built-in workloads through the
// segment-backed executor, diff its counted page reads against the
// optimizer's estimates, and verify every result byte-identical to the
// plain-row oracle.
func ExtMeasured(sc Scale) *Report {
	rep := &Report{ID: "ext-measured", Title: "Extension: materialized segments vs the size and I/O models"}

	sizeTable := rep.NewTable("size model vs materialized segments",
		"db", "structure", "method", "est-bytes", "actual-bytes", "byte-err", "est-pages", "actual-pages")
	var worst float64
	addSizes := func(sizes []MeasuredSize, err error) {
		if err != nil {
			rep.Notef("size measurement failed: %v", err)
			return
		}
		for _, m := range sizes {
			if e := math.Abs(m.ByteErr()); e > worst {
				worst = e
			}
			sizeTable.Add(m.DB, m.Structure, m.MethodLabel(),
				m.EstimatedBytes, m.MaterializedBytes, fmt.Sprintf("%+.1f%%", 100*m.ByteErr()),
				m.EstimatedPages, m.MaterializedPages)
		}
	}
	for _, setup := range []struct {
		db         *catalog.Database
		structures []*index.Def
		mixed      []*index.Def
	}{
		{newTPCHAt(sc), measuredTPCHStructures(), measuredTPCHMixedDesigns()},
		{newSalesAt(sc), measuredSalesStructures(), measuredSalesMixedDesigns()},
	} {
		addSizes(MeasuredSizes(setup.db, setup.structures, MeasuredMethods))
		addSizes(MeasuredDesignSizes(setup.db, setup.mixed))
	}
	rep.Notef("worst byte-level size-model error: %.1f%% (NONE and ROW differ from the model only by the column-major framing)", 100*worst)

	designTable := rep.NewTable("per-column design vs every uniform method (same structure, materialized sizes, select-intensive TPC-H)",
		"design", "bytes", "total-cost", "improvement")
	if costs, err := MixedVsUniform(sc); err != nil {
		rep.Notef("mixed-vs-uniform comparison failed: %v", err)
	} else {
		for _, c := range costs {
			designTable.Add(c.Label, c.Bytes, fmt.Sprintf("%.1f", c.TotalCost),
				fmt.Sprintf("%.1f%%", c.Improvement))
		}
	}

	execTable := rep.NewTable("optimizer page-read estimates vs executor counters",
		"scenario", "statements", "est-reads", "counted-reads", "ratio", "identical")
	for _, scen := range MeasuredScenarios(sc) {
		results, err := MeasuredExecution(scen.Mkdb, scen.WL, scen.Defs)
		if err != nil {
			execTable.Add(scen.Name, "err", err.Error())
			continue
		}
		var est float64
		var counted int64
		identical := true
		for _, r := range results {
			est += r.EstReads
			counted += r.CountedReads
			identical = identical && r.Identical
		}
		ratio := math.Inf(1)
		if counted > 0 {
			ratio = est / float64(counted)
		}
		execTable.Add(scen.Name, len(results),
			fmt.Sprintf("%.0f", est), counted, fmt.Sprintf("%.2f", ratio), identical)
	}
	rep.Notef("ratio is model/reality: >1 means the cost model over-estimates physical reads (it prices tree descents and ignores the executor's per-statement page cache)")
	rep.Notef("identical=true asserts byte-identical rows (queries) and equal affected-row counts (writes) against the plain-row oracle, with writes applied in workload order")
	return rep
}

func newTPCHAt(sc Scale) *catalog.Database {
	return datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Seed: sc.Seed})
}

func newSalesAt(sc Scale) *catalog.Database {
	return datagen.NewSales(datagen.SalesConfig{FactRows: sc.SalesRows, Zipf: 0.8, Seed: sc.Seed})
}
