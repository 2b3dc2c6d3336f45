package experiments

import (
	"fmt"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// ExtMethods is an extension beyond the paper's evaluation, motivated by its
// Section 8 future work: widen the advisor's compression-method palette from
// SQL Server's {ROW, PAGE} to also include global dictionary and RLE (the
// column-store-leaning methods) and measure the effect on design quality.
// RLE in particular rewards sort orders that cluster repeats — exactly the
// sensitivity the paper flags as the open Column-Store problem. The second
// table holds one structure fixed and prices a per-column design against
// every uniform method.
func ExtMethods(sc Scale) *Report {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Seed: sc.Seed})
	wl := workloads.SelectIntensive(workloads.MustTPCH())
	heap := float64(db.TotalHeapBytes())

	rep := &Report{ID: "ext-methods", Title: "Extension: advisor quality with wider compression palettes"}
	t := rep.NewTable("improvement % over no-index baseline", "budget", "ROW+PAGE (paper)", "+GDICT", "+RLE (all four)")

	palettes := [][]compress.Method{
		{compress.Row, compress.Page},
		{compress.Row, compress.Page, compress.GlobalDict},
		{compress.Row, compress.Page, compress.GlobalDict, compress.RLE},
	}
	for _, frac := range sc.Budgets {
		b := int64(frac * heap)
		row := []interface{}{fmt.Sprintf("%.0f%%", 100*frac)}
		for _, methods := range palettes {
			opts := core.DefaultOptions(b)
			opts.Methods = methods
			rec, err := core.New(db, wl, opts).Recommend()
			if err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", rec.Improvement))
		}
		t.Add(row...)
	}
	rep.Notef("wider palettes cannot hurt (they only add candidates) and help most at tight budgets")

	designs := rep.NewTable("per-column design vs every uniform method (same structure, materialized sizes, select-intensive TPC-H)",
		"design", "bytes", "total-cost", "improvement")
	costs, err := mixedVsUniform(db, wl)
	if err != nil {
		rep.Notef("mixed-vs-uniform comparison failed: %v", err)
		return rep
	}
	perColumn, cheapest := costs[len(costs)-1], true
	for _, c := range costs {
		designs.Add(c.Label, c.Bytes, fmt.Sprintf("%.1f", c.TotalCost), fmt.Sprintf("%.1f%%", c.Improvement))
		cheapest = cheapest && (c == perColumn || perColumn.TotalCost < c.TotalCost)
	}
	rep.Notef("per-column design strictly cheaper than every uniform method: %v", cheapest)
	rep.Notef("this experiment extends the paper (Section 8 future work); no paper artifact corresponds to it")
	return rep
}

// designCost is one row of the mixed-vs-uniform comparison: the workload's
// what-if cost under one compression design of the same physical structure.
type designCost struct {
	Label       string
	TotalCost   float64
	Improvement float64
	Bytes       int64
}

// mixedVsUniform holds the structure fixed — a clustered ship-date index over
// the TPC-H fact table — and compares the workload's what-if cost under every
// uniform method against a per-column design (RLE on the two-valued status
// flag, ROW where the dictionary would store plain values, GDICT elsewhere).
// Every design is physically materialized, so the sizes feeding the cost
// model are measured, not estimated. The per-column row comes last; its
// coming in strictly cheapest is the design-vector payoff: no single method
// matches runs + dictionaries + cheap decode at the same time.
func mixedVsUniform(db *catalog.Database, wl *workload.Workload) ([]designCost, error) {
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
	out := make([]designCost, 0, len(designs))
	for _, dd := range designs {
		p, err := index.Build(db, dd.d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dd.label, err)
		}
		cost := cm.WorkloadCost(wl, optimizer.NewConfiguration(optimizer.FromPhysical(p)))
		dc := designCost{Label: dd.label, TotalCost: cost, Bytes: p.Bytes}
		if base > 0 {
			dc.Improvement = 100 * (1 - cost/base)
		}
		out = append(out, dc)
	}
	return out, nil
}
