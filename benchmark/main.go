// Command benchmark is the repository's benchmark: it times the whole loop
// the advisor exists for — tune a database for a workload, build what was
// recommended, run the workload on it — on four workloads, checks every
// result against the plain-row oracle, and reports the end-to-end metrics and
// (from a separate traced run) one set of metrics per layer. README.md says
// why each workload exists and which layer should move which number.
//
//	benchmark -seed 1                      the suite: every workload, untraced then traced, each in its own process
//	benchmark -workload W -seed 1 -trace 0 one run; the last line of output is the driver's JSON object
//	benchmark -report                      self-time tables and the workload-contrast checks of the last suite
//	benchmark -compare old.json new.json   per workload × metric verdicts between two result files
//	benchmark -aa                          the suite twice on the same tree, compared
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// minReps is the fewest reps a timing median is taken over.
const minReps = 5

// runResult is everything one run of one workload produced. The suite merges
// the untraced and traced results of each workload into result.json.
type runResult struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Rows       int    `json:"rows"`
	Reps       int    `json:"reps"`
	Warm       int    `json:"warmup_passes"`
	K          int    `json:"recorded_passes"`
	Statements int    `json:"statements"`
	// PoolBytes and WorkingSetBytes size the disk workload: the pool's
	// capacity against the spilled segments it serves.
	PoolBytes       int64             `json:"pool_bytes"`
	WorkingSetBytes int64             `json:"working_set_bytes"`
	Fingerprint     string            `json:"recommendation_fingerprint"`
	Attempted       int               `json:"attempted"`
	Failed          int               `json:"failed"`
	Failures        []string          `json:"failures,omitempty"`
	Metrics         map[string]sample `json:"metrics"`
}

// runConfig is one run's inputs besides the workload.
type runConfig struct {
	seed    int64
	seconds float64 // the time box; ignored when reps > 0
	reps    int     // exact rep count (0: as many as fit, at least minReps)
	traced  bool
	out     string
}

// runWorkload measures one workload in this process. Untraced, it repeats the
// loop for the time box and reports the end-to-end metrics. Traced, it runs
// one plain rep and one rep under the tracer, then the layer probes, and
// reports the per-layer metrics; spans go to trace-<workload>.json.
func runWorkload(sp spec, cfg runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	r := &runner{sp: sp, seed: cfg.seed, dir: cfg.out}
	if err := r.buildOracle(); err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: sp.Name, Seed: cfg.seed, Traced: cfg.traced,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Rows: sp.Rows, Warm: sp.Warm, K: sp.K, Statements: len(r.oracle[0]),
	}

	var reps []*repOut
	var root *span
	want := func() bool {
		if cfg.traced {
			return len(reps) < 2
		}
		if cfg.reps > 0 {
			return len(reps) < cfg.reps
		}
		return len(reps) < minReps || time.Since(start).Seconds() < cfg.seconds
	}
	for want() {
		if cfg.traced && len(reps) == 1 {
			r.tr = newTracer()
			root = r.tr.begin(nil, "workload["+sp.Name+"]")
		}
		o, err := r.rep(len(reps), root)
		if err != nil {
			return nil, err
		}
		// Determinism check: the same inputs must yield the same design.
		if len(reps) > 0 {
			r.attempted++
			if o.fingerprint != reps[0].fingerprint {
				r.fail("rep %d recommended %s, rep 0 %s", len(reps), o.fingerprint, reps[0].fingerprint)
			}
		}
		reps = append(reps, o)
	}
	last := reps[len(reps)-1]
	res.Reps, res.Fingerprint = len(reps), reps[0].fingerprint
	res.PoolBytes, res.WorkingSetBytes = last.poolBytes, last.workingSet

	if cfg.traced {
		res.Metrics = r.repLayerMetrics(reps[0], last)
		if err := r.probeLayers(res.Metrics, last.rec, last.passMean(), root); err != nil {
			return nil, err
		}
		root.end()
		if err := checkSpans(r.tr.spans); err != nil {
			return nil, err
		}
		if err := r.tr.write(filepath.Join(cfg.out, "trace-"+sp.Name+".json")); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEndMetrics(reps)
	}
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	return res, nil
}

// metricsFor lists the metrics a run reports, in printing order.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// print writes the run as a table: every metric by name with its unit, range
// and sample count.
func (res *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  gomaxprocs %d  nproc %d  rows %d  reps %d  passes %d+%d  statements %d\n",
		res.Workload, res.Seed, res.Traced, res.GoMaxProcs, res.NumCPU, res.Rows, res.Reps, res.Warm, res.K, res.Statements)
	if res.PoolBytes > 0 {
		fmt.Fprintf(w, "  pool %d bytes over a working set of %d bytes\n", res.PoolBytes, res.WorkingSetBytes)
	}
	for _, d := range metricsFor(res.Traced) {
		s := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s min %-12.6g max %-12.6g n %d\n", d.Name, s.Value, s.Unit, s.Min, s.Max, s.N)
	}
	fmt.Fprintf(w, "  operations attempted %d failed %d (ops_failed_share %g)  recommendation %s\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Fingerprint)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// driverLine is the one JSON object the driver reads off the last line.
func (res *runResult) driverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for name, s := range res.Metrics {
		metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	return string(line)
}

// runFile is where the run of a workload with -trace 0 or 1 leaves its result.
func runFile(out, workload string, trace int) string {
	return filepath.Join(out, fmt.Sprintf("run-%s-t%d.json", workload, trace))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// suiteResult is result.json: per workload, the untraced run's end-to-end
// metrics and the traced run's per-layer metrics.
type suiteResult struct {
	Seed      int64                 `json:"seed"`
	GoVersion string                `json:"go_version"`
	Workloads map[string]*suiteWork `json:"workloads"`
}

type suiteWork struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

// runSuite measures each workload in its own child processes — one untraced,
// one traced — so heap growth and peak RSS do not leak between them, then
// merges what they wrote into result.json.
func runSuite(sps []spec, out string, childArgs []string) (*suiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	suite := &suiteResult{GoVersion: runtime.Version(), Workloads: make(map[string]*suiteWork)}
	for _, sp := range sps {
		work := &suiteWork{}
		for trace := 0; trace <= 1; trace++ {
			args := append([]string{"-workload", sp.Name, "-trace", strconv.Itoa(trace), "-out", out}, childArgs...)
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s -trace %d: %w", sp.Name, trace, err)
			}
			res := &runResult{}
			if err := readJSON(runFile(out, sp.Name, trace), res); err != nil {
				return nil, err
			}
			if trace == 1 {
				work.PerLayer = res
			} else {
				work.EndToEnd = res
			}
			suite.Seed = res.Seed
		}
		suite.Workloads[sp.Name] = work
	}
	return suite, writeJSON(filepath.Join(out, "result.json"), suite)
}

func (s *suiteResult) names() []string {
	names := make([]string, 0, len(s.Workloads))
	for n := range s.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errFailedOps = errors.New("operations failed; see FAILED lines above")

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the data generators")
	workload := fs.String("workload", "", "comma-separated workloads (default all)")
	seconds := fs.Float64("seconds", 20, "time box of one untraced run; at least five reps always run")
	reps := fs.Int("reps", 0, "exact reps per untraced run instead of the time box")
	trace := fs.Int("trace", 0, "0 or 1: measure one workload in this process, untraced or traced, and print the driver's JSON line")
	out := fs.String("out", "out", "output directory")
	report := fs.Bool("report", false, "print self-time tables and check the workload contrasts of the suite in -out")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	aa := fs.Bool("aa", false, "run the suite twice and compare the two runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sps, err := selectSpecs(*workload)
	if err != nil {
		return err
	}
	single := false
	var childArgs []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "trace":
			single = true
		case "seed", "seconds", "reps":
			childArgs = append(childArgs, "-"+f.Name, f.Value.String())
		}
	})

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *aa:
		return runAA(os.Stdout, sps, *out, childArgs)
	case *report:
		return reportSuite(os.Stdout, *out)
	case single:
		if len(sps) != 1 || *workload == "" || *trace < 0 || *trace > 1 {
			return errors.New("-trace 0|1 measures exactly one -workload")
		}
		res, err := runWorkload(sps[0], runConfig{seed: *seed, seconds: *seconds, reps: *reps, traced: *trace == 1, out: *out})
		if err != nil {
			return err
		}
		if err := writeJSON(runFile(*out, res.Workload, *trace), res); err != nil {
			return err
		}
		res.print(os.Stdout)
		fmt.Println(res.driverLine())
		if res.Failed > 0 {
			return errFailedOps
		}
		return nil
	default:
		suite, err := runSuite(sps, *out, childArgs)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", filepath.Join(*out, "result.json"))
		for _, n := range suite.names() {
			if w := suite.Workloads[n]; w.EndToEnd.Failed+w.PerLayer.Failed > 0 {
				return errFailedOps
			}
		}
		return nil
	}
}
