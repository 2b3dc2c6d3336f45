package experiments

import (
	"fmt"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/sampling"
	"cadb/internal/sizing"
)

// errorStudyIndexes enumerates a diverse family of index definitions on the
// given database's fact tables: singletons, pairs and triples over columns
// with different types and cardinalities — the "hundreds of indexes"
// population of Appendix C, capped by the scale.
func errorStudyIndexes(db *catalog.Database, m compress.Method, cap int) []*index.Def {
	var defs []*index.Def
	for _, t := range db.Tables() {
		if !t.Fact {
			continue
		}
		cols := t.Schema.Names()
		// Singletons.
		for _, c := range cols {
			defs = append(defs, (&index.Def{Table: t.Name, KeyCols: []string{c}}).WithMethod(m))
		}
		// Pairs with a stride so combinations vary.
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j += 3 {
				defs = append(defs, (&index.Def{Table: t.Name, KeyCols: []string{cols[i], cols[j]}}).WithMethod(m))
			}
		}
		// A few triples.
		for i := 0; i+2 < len(cols); i += 4 {
			defs = append(defs, (&index.Def{Table: t.Name, KeyCols: []string{cols[i], cols[i+1], cols[i+2]}}).WithMethod(m))
		}
	}
	if cap > 0 && len(defs) > cap {
		defs = defs[:cap]
	}
	return defs
}

// measureSampleCFErrors returns X-1 = (estimate/truth - 1) for each study
// index at the given sampling fraction.
func measureSampleCFErrors(db *catalog.Database, m compress.Method, f float64, cap int, seed int64) []float64 {
	est := sizing.NewEstimator(db, sampling.NewManager(db, f, seed))
	var errs []float64
	for _, d := range errorStudyIndexes(db, m, cap) {
		truth, err := index.Build(db, d)
		if err != nil || truth.Bytes == 0 {
			continue
		}
		e, err := est.SampleCF(d)
		if err != nil {
			continue
		}
		errs = append(errs, float64(e.Bytes)/float64(truth.Bytes)-1)
	}
	return errs
}

// Fig9 reproduces "Figure 9: Error Bias and Variance of SampleCF": bias and
// standard deviation of the local-dictionary (PAGE/LD) and null-suppression
// (ROW/NS) estimates, plotted against the sampling ratio f. Expected shape:
// both drop quickly as f grows; NS bias stays near zero; LD noisier than NS.
func Fig9(sc Scale) *Report {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Seed: sc.Seed})
	rep := &Report{ID: "fig9", Title: "SampleCF error bias/stddev vs sampling ratio f (LD=PAGE, NS=ROW)"}
	t := rep.NewTable("", "f", "LD-Bias", "LD-Stddev", "NS-Bias", "NS-Stddev")
	for _, f := range []float64{0.01, 0.025, 0.05, 0.075, 0.10} {
		ld := measureSampleCFErrors(db, compress.Page, f, sc.IndexSampleCount, sc.Seed)
		ns := measureSampleCFErrors(db, compress.Row, f, sc.IndexSampleCount, sc.Seed)
		t.Add(fmt.Sprintf("%.1f%%", 100*f), pct(mean(ld)), pct(stddev(ld)), pct(mean(ns)), pct(stddev(ns)))
	}
	rep.Notef("expected: errors shrink as f grows; |NS-Bias| ~ 0; LD-Stddev > NS-Stddev")
	return rep
}

// Table2 reproduces "Table 2: Least Square Error Analysis on Various Data
// Sets": fit c in (bias, stddev) = c·(−ln f) for TPC-H at Z=0/1/3 and
// TPC-DS; the paper's point is that the coefficients are stable across
// schemas and skews.
func Table2(sc Scale) *Report {
	rep := &Report{ID: "table2", Title: "Least-squares fits c in error = c·(-ln f), across datasets"}
	t := rep.NewTable("(paper: LD-Bias -0.015..-0.013, NS-Stddev -0.0056..-0.0064, LD-Stddev -0.014..-0.018)",
		"dataset", "LD-Bias c", "NS-Stddev c", "LD-Stddev c")

	datasets := []struct {
		name string
		db   *catalog.Database
	}{
		{"TPC-H Z=0", datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Zipf: 0, Seed: sc.Seed})},
		{"TPC-H Z=1", datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Zipf: 1, Seed: sc.Seed})},
		{"TPC-H Z=3", datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Zipf: 3, Seed: sc.Seed})},
		{"TPC-DS", datagen.NewTPCDS(datagen.TPCDSConfig{StoreSalesRows: sc.LineitemRows, Seed: sc.Seed})},
	}
	fs := []float64{0.01, 0.025, 0.05, 0.1}
	for _, ds := range datasets {
		var ldBias, nsStd, ldStd []float64
		for _, f := range fs {
			ld := measureSampleCFErrors(ds.db, compress.Page, f, sc.IndexSampleCount, sc.Seed)
			ns := measureSampleCFErrors(ds.db, compress.Row, f, sc.IndexSampleCount, sc.Seed)
			ldBias = append(ldBias, mean(ld))
			nsStd = append(nsStd, stddev(ns))
			ldStd = append(ldStd, stddev(ld))
		}
		t.Add(ds.name,
			fmt.Sprintf("%+.4f", -sizing.FitLogCoefficient(fs, ldBias)),
			fmt.Sprintf("%+.4f", -sizing.FitLogCoefficient(fs, nsStd)),
			fmt.Sprintf("%+.4f", -sizing.FitLogCoefficient(fs, ldStd)))
	}
	rep.Notef("stability across rows (not their absolute values) is the reproduction target")
	return rep
}
