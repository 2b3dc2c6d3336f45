package main

import (
	"fmt"
	"runtime"
	"strings"

	"cadb"
)

// spec is one benchmark workload: how its inputs are made from the seed, how
// the advisor and the store are configured, and how much of it one rep runs.
type spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json repeats
	// it; README.md has the long form).
	Why string
	// Rows is the fact-table row count.
	Rows int
	// Warm and K are the warm-up and recorded passes of one rep, after pass 0
	// (which belongs to deploy).
	Warm, K int
	// Disk serves every segment from spill files through a buffer pool sized
	// at a tenth of the working set.
	Disk bool

	gen   func(rows int, seed int64) *cadb.Database
	parse func() *cadb.Workload
	tweak func(o *cadb.Options)
	// fact is the clustered fact structure the index/compress/storage probes
	// build under each uniform method.
	fact cadb.IndexDef
}

func nproc() int { return runtime.GOMAXPROCS(0) }

func genTPCH(rows int, seed int64) *cadb.Database {
	return cadb.NewTPCH(cadb.TPCHConfig{LineitemRows: rows, Seed: seed})
}

func genSales(rows int, seed int64) *cadb.Database {
	return cadb.NewSales(cadb.SalesConfig{FactRows: rows, Zipf: 0.8, Seed: seed})
}

// salesQuerySeed pins the Sales query generator. Fifty queries drawn afresh
// are a different workload, not a different sample of the same one: across
// ten generator seeds cold Tune ran from 0.8 s to 1.9 s. So -seed drives the
// data, and every run tunes for and serves the same fifty statements.
const salesQuerySeed = 1

// serial keeps the advisor on one worker.
func serial(o *cadb.Options) { o.Parallelism = 1 }

func parseSales() *cadb.Workload { return cadb.SelectIntensive(cadb.SalesWorkload(salesQuerySeed)) }

var (
	tpchFact  = cadb.IndexDef{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true}
	salesFact = cadb.IndexDef{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true}
)

// specs are the four workloads. Names are fixed: later issues cite them.
// Rows and passes are cut from the issue's sizes so that five reps, the
// oracle and (traced) the probes fit one driver run of about 25 s.
var specs = []spec{
	{
		Name: "tpch-select",
		Why:  "TPC-H reads on in-memory segments: tune is estimation-bound, passes are pure decode+operator CPU, pool and I/O idle",
		Rows: 40000, Warm: 0, K: 4,
		gen:   genTPCH,
		parse: func() *cadb.Workload { return cadb.SelectIntensive(cadb.TPCHWorkload()) },
		tweak: serial,
		fact:  tpchFact,
	},
	{
		Name: "tpch-update",
		Why:  "TPC-H reads beside UPDATE/DELETE: every write invalidates segments, so encode and index build dominate the pass",
		Rows: 10000, Warm: 1, K: 3,
		gen:   genTPCH,
		parse: func() *cadb.Workload { return cadb.UpdateIntensive(cadb.TPCHWorkloadWithUpdates()) },
		tweak: serial,
		fact:  tpchFact,
	},
	{
		Name: "sales-disk",
		Why:  "Sales star schema spilled to disk behind a pool a tenth of the working set: bufferpool, segfile reads and readahead work",
		Rows: 30000, Warm: 1, K: 5, Disk: true,
		gen:   genSales,
		parse: parseSales,
		tweak: serial,
		fact:  salesFact,
	},
	{
		Name: "sales-wide",
		Why:  "Tiny Sales data with MV and partial candidates at parallelism>1: tune is enumeration-bound and dominates the loop",
		Rows: 8000, Warm: 1, K: 10,
		gen:   genSales,
		parse: parseSales,
		tweak: func(o *cadb.Options) {
			o.EnableMV, o.EnablePartial = true, true
			o.Parallelism = min(nproc(), 4)
		},
		fact: salesFact,
	},
}

// smoke shrinks a workload to the size bench_test.go runs: the whole loop in
// about a second, every metric still produced.
func (s spec) smoke() spec {
	s.Rows, s.K = 1500, 1
	return s
}

// selectSpecs resolves a comma-separated list of workload names ("" = all).
// Unknown names are an error, never a silent skip.
func selectSpecs(list string) ([]spec, error) {
	if list == "" {
		return specs, nil
	}
	var out []spec
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, s := range specs {
			if s.Name == name {
				out, found = append(out, s), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(specNames(), ", "))
		}
	}
	return out, nil
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
