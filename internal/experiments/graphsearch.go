package experiments

import (
	"fmt"
	"time"

	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/sampling"
	"cadb/internal/sizing"
)

// lineitemTargets is the LINEITEM-only target family the paper used for the
// Optimal comparison (Appendix D limits Optimal to LINEITEM indexes of
// bounded width): ROW- and PAGE-compressed composite indexes.
func lineitemTargets() []*index.Def {
	mk := func(m compress.Method, cols ...string) *index.Def {
		return (&index.Def{Table: "lineitem", KeyCols: cols}).WithMethod(m)
	}
	return []*index.Def{
		mk(compress.Row, "l_shipdate"),
		mk(compress.Row, "l_shipdate", "l_discount"),
		mk(compress.Row, "l_shipdate", "l_discount", "l_quantity"),
		mk(compress.Row, "l_partkey", "l_quantity"),
		mk(compress.Row, "l_quantity", "l_partkey"),
		mk(compress.Page, "l_shipmode"),
		mk(compress.Page, "l_shipmode", "l_returnflag"),
		mk(compress.Page, "l_shipmode", "l_returnflag", "l_linestatus"),
	}
}

// Table4 reproduces "Table 4: Quality (Cost) of Graph Algorithms" with
// e=0.5, q=0.9 over f in {1, 2.5, 5, 7.5, 10}%: total estimation cost of
// All (SampleCF everywhere), Greedy and Optimal. Expected shape: Greedy far
// below All and within a small factor of Optimal.
func Table4(sc Scale) *Report {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Seed: sc.Seed})
	targets := lineitemTargets()
	rep := &Report{ID: "table4", Title: "Estimation-plan cost: All vs Greedy vs Optimal (e=0.5, q=0.9)"}
	t := rep.NewTable("(cost unit: sample-index pages)", "f", "All", "Greedy", "Optimal", "greedy/opt")

	const e, q = 0.5, 0.9
	for _, f := range []float64{0.01, 0.025, 0.05, 0.075, 0.10} {
		mkEst := func() *sizing.Estimator {
			return sizing.NewEstimator(db, sampling.NewManager(db, f, sc.Seed))
		}
		all := sizing.All(mkEst(), targets, nil, e, q, f)
		greedy := sizing.Greedy(mkEst(), targets, nil, e, q, f)
		opt, ok := sizing.Optimal(mkEst(), targets, nil, e, q, f, 0)
		optCost := "-"
		ratio := "-"
		if ok {
			optCost = fmt.Sprintf("%.0f", opt.TotalCost)
			if opt.TotalCost > 0 {
				ratio = fmt.Sprintf("%.2f", greedy.TotalCost/opt.TotalCost)
			}
		}
		t.Add(fmt.Sprintf("%.1f%%", 100*f),
			fmt.Sprintf("%.0f", all.TotalCost),
			fmt.Sprintf("%.0f", greedy.TotalCost),
			optCost, ratio)
	}

	// Runtime comparison: Greedy scales to hundreds of indexes, Optimal
	// cannot (the paper: "Optimal did not finish in hours for all 300
	// indexes; Greedy finished in a second").
	big := errorStudyIndexes(db, compress.Row, 300)
	start := time.Now()
	sizing.Greedy(sizing.NewEstimator(db, sampling.NewManager(db, 0.05, sc.Seed)), big, nil, e, q, 0.05)
	greedyTime := time.Since(start)
	rep.Notef("Greedy over %d targets: %v (Optimal is exponential and is capped out)", len(big), clock{greedyTime})
	return rep
}
