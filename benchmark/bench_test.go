package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json, the driver's copy of the
// workload and metric tables.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func checkDefs(t *testing.T, kind string, got []jsonMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d %s metrics, the program %d", len(got), kind, len(want))
	}
	for i, d := range want {
		g := got[i]
		better := "lower"
		if d.Higher {
			better = "higher"
		}
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != better {
			t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
		}
		if (g.Bound != nil) != (d.Bound > 0) || (g.Bound != nil && *g.Bound != d.Bound) {
			t.Errorf("%s: bound in BENCHMARK.json differs from the program's %v", d.Name, d.Bound)
		}
	}
}

// TestSmoke drives all four workloads through the full loop, untraced and
// traced, at the smoke size and checks the results against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	var bj benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	checkDefs(t, "end_to_end", bj.EndToEnd, endToEnd)
	checkDefs(t, "per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	out := t.TempDir()
	for i, sp := range specs {
		if bj.Workloads[i].Name != sp.Name || bj.Workloads[i].Why != sp.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, bj.Workloads[i], sp.Name, sp.Why)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(sp.smoke(), runConfig{seed: 1, reps: 1, traced: traced, out: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", sp.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			defs := metricsFor(traced)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d defined", sp.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				s, ok := res.Metrics[d.Name]
				if !ok || s.Unit != d.Unit || s.N < 1 {
					t.Errorf("%s: metric %s missing or mislabelled: %+v", sp.Name, d.Name, s)
				}
				if !name.MatchString(d.Name) {
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", d.Name)
				}
			}
		}
		// runWorkload already refused a trace whose parents do not resolve or
		// whose children outlast their parent; check the written file too.
		spans, err := readTrace(filepath.Join(out, "trace-"+sp.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSpans(spans); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
		var buf bytes.Buffer
		reportTrace(&buf, spans)
		if !bytes.Contains(buf.Bytes(), []byte("probe[exec.heap_pass_s]")) || !bytes.Contains(buf.Bytes(), []byte("stmt")) {
			t.Errorf("%s: trace report lacks probe or statement rows:\n%s", sp.Name, buf.String())
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "pass_s", Unit: "s", Bound: 0.1}
	s := func(v, lo, hi float64) sample { return sample{Value: v, Unit: "s", Min: lo, Max: hi, N: 5} }
	for _, c := range []struct {
		old, cur sample
		want     string
	}{
		{s(1, 0.9, 1.1), s(1.05, 1, 1.1), "same"},
		{s(1, 0.9, 1.1), s(1.3, 1.2, 1.4), "worse"},
		{s(1, 0.9, 1.1), s(0.7, 0.6, 0.8), "better"},
		{s(1, 0.9, 1.25), s(1.3, 1.2, 1.4), "unresolved"},
	} {
		if got := verdict(d, c.old, c.cur); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.old.Value, c.cur.Value, got, c.want)
		}
	}
	if _, err := selectSpecs("tpch-select,nope"); err == nil {
		t.Error("unknown workload name accepted")
	}
}
