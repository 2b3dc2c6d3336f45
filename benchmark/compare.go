package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
)

// worsening returns by what share of old's median the metric got worse
// (negative: better).
func worsening(d metricDef, old, cur sample) float64 {
	delta := (cur.Value - old.Value) / math.Abs(old.Value)
	if d.Higher {
		return -delta
	}
	return delta
}

// verdict judges one metric between two result files. A shift within the
// bound is "same". A larger one counts only when the two files' own min–max
// ranges do not overlap; otherwise the runs cannot resolve it.
func verdict(d metricDef, old, cur sample) string {
	w := worsening(d, old, cur)
	switch {
	case math.Abs(w) <= d.Bound:
		return "same"
	case cur.Min <= old.Max && old.Min <= cur.Max:
		return "unresolved"
	case w > 0:
		return "worse"
	}
	return "better"
}

func loadSuite(path string) (*suiteResult, error) {
	s := &suiteResult{}
	return s, readJSON(path, s)
}

// compareFiles prints one row per workload × end-to-end metric and fails on
// any "worse" or on a higher share of failed operations.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := loadSuite(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadSuite(newPath)
	if err != nil {
		return err
	}
	var bad []string
	fmt.Fprintf(w, "%-12s %-26s %14s %14s %22s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, name := range cur.names() {
		o, c := old.Workloads[name], cur.Workloads[name]
		if o == nil {
			fmt.Fprintf(w, "%-12s only in %s\n", name, newPath)
			continue
		}
		for _, d := range endToEnd {
			a, b := o.EndToEnd.Metrics[d.Name], c.EndToEnd.Metrics[d.Name]
			v := verdict(d, a, b)
			fmt.Fprintf(w, "%-12s %-26s %14.6g %14.6g %9.3fx of %-8.4g %6.1f%%  %s\n",
				name, d.Name, a.Value, b.Value, b.Value/a.Value, a.Value, 100*d.Bound, v)
			if v == "worse" {
				bad = append(bad, name+"/"+d.Name+" worse")
			}
		}
		oShare := float64(o.EndToEnd.Failed) / float64(o.EndToEnd.Attempted)
		cShare := float64(c.EndToEnd.Failed) / float64(c.EndToEnd.Attempted)
		fmt.Fprintf(w, "%-12s %-26s %14s %14s\n", name, "ops_failed_share",
			fmt.Sprintf("%d/%d", o.EndToEnd.Failed, o.EndToEnd.Attempted), fmt.Sprintf("%d/%d", c.EndToEnd.Failed, c.EndToEnd.Attempted))
		if cShare > oShare {
			bad = append(bad, name+"/ops_failed_share higher")
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

// exactMetrics must repeat bit for bit on the same tree and seed: they are
// counts and model outputs, not times.
var exactMetrics = []string{
	"predicted_improvement_pct",
	"optimizer.page_read_err_pct",
	"core.candidates", "core.selected", "core.whatif_evals", "core.refinements",
	"exec.page_reads", "exec.pages_decoded", "exec.tuples_decoded", "exec.columns_decoded",
}

// runAA runs the suite twice on the same tree. Every end-to-end timing must
// agree within its bound and every deterministic value exactly; the observed
// run-to-run spread is printed so the bounds can be audited. setup_s is
// printed but not asserted: it is tens of milliseconds of allocation, and one
// run's median of five lands in one of two modes a third apart.
func runAA(w io.Writer, sps []spec, out string, childArgs []string) error {
	var runs [2]*suiteResult
	for i := range runs {
		var err error
		if runs[i], err = runSuite(sps, filepath.Join(out, fmt.Sprintf("aa-%d", i+1)), childArgs); err != nil {
			return err
		}
	}
	a, b := runs[0], runs[1]
	var bad []string
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %8s %7s\n", "workload", "metric", "run 1", "run 2", "spread", "bound")
	for _, name := range a.names() {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, d := range endToEnd {
			x, y := wa.EndToEnd.Metrics[d.Name], wb.EndToEnd.Metrics[d.Name]
			spread := math.Abs(x.Value-y.Value) / math.Min(math.Abs(x.Value), math.Abs(y.Value))
			fmt.Fprintf(w, "%-12s %-28s %14.6g %14.6g %7.2f%% %6.1f%%\n", name, d.Name, x.Value, y.Value, 100*spread, 100*d.Bound)
			if spread > d.Bound && d.Name != "setup_s" {
				bad = append(bad, fmt.Sprintf("%s/%s differs by %.1f%%", name, d.Name, 100*spread))
			}
		}
		for _, m := range exactMetrics {
			x, xok := wa.EndToEnd.Metrics[m]
			y := wb.EndToEnd.Metrics[m]
			if !xok {
				x, y = wa.PerLayer.Metrics[m], wb.PerLayer.Metrics[m]
			}
			if x.Value != y.Value {
				bad = append(bad, fmt.Sprintf("%s/%s not exact: %v vs %v", name, m, x.Value, y.Value))
			}
		}
		if wa.EndToEnd.Fingerprint != wb.EndToEnd.Fingerprint {
			bad = append(bad, name+": recommendations differ")
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	fmt.Fprintf(w, "A/A: every timing within its bound, every deterministic value exactly equal\n")
	return nil
}

// reportSuite prints each workload's trace report and checks the contrasts
// the workloads were chosen for.
func reportSuite(w io.Writer, out string) error {
	suite, err := loadSuite(filepath.Join(out, "result.json"))
	if err != nil {
		return err
	}
	var bad []string
	expect := func(workload, claim string, ok bool) {
		state := "ok"
		if !ok {
			state = "VIOLATED"
			bad = append(bad, workload+": "+claim)
		}
		fmt.Fprintf(w, "  contrast %-58s %s\n", claim, state)
	}
	for _, name := range suite.names() {
		spans, err := readTrace(filepath.Join(out, "trace-"+name+".json"))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", name)
		reportTrace(w, spans)
		m := suite.Workloads[name].PerLayer.Metrics
		v := func(metric string) float64 { return m[metric].Value }
		poolIdle := true
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "bufferpool.") && v(d.Name) != 0 {
				poolIdle = false
			}
		}
		switch name {
		case "tpch-select":
			expect(name, "core.estimate_all_s > core.enumerate_s", v("core.estimate_all_s") > v("core.enumerate_s"))
		case "sales-wide":
			expect(name, "core.enumerate_s > core.estimate_all_s", v("core.enumerate_s") > v("core.estimate_all_s"))
		}
		if name == "tpch-update" {
			expect(name, "exec.write_s > 0", v("exec.write_s") > 0)
		} else {
			expect(name, "exec.write_s = 0", v("exec.write_s") == 0)
		}
		if name == "sales-disk" {
			expect(name, "0 < bufferpool.hit_pct < 100", v("bufferpool.hit_pct") > 0 && v("bufferpool.hit_pct") < 100)
			expect(name, "bufferpool.peak_over_capacity <= 1", v("bufferpool.peak_over_capacity") <= 1)
		} else {
			expect(name, "bufferpool.* = 0", poolIdle)
		}
	}
	if len(bad) > 0 {
		return errors.New("workload contrasts violated: " + strings.Join(bad, "; "))
	}
	return nil
}
