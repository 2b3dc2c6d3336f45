package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"time"

	"cadb"
	"cadb/internal/exec"
	"cadb/internal/storage"
)

// runner drives one workload through the loop: setup → tune → deploy →
// passes, one client, closed loop, no think time. It counts every operation
// (statement execution, Tune, determinism check) and how many failed.
type runner struct {
	sp   spec
	seed int64
	dir  string  // output directory; the disk workload spills beneath it
	tr   *tracer // nil on the untraced run

	// oracle[p][i] is the plain-row executor's digest of statement i on pass
	// p. A read-only workload leaves the data alone, so one row serves every
	// pass; with writes the oracle twin runs every pass the store will.
	oracle     [][]uint64
	oraclePass time.Duration

	attempted, failed int
	failures          []string
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// executable lists the statements a pass runs. Bulk INSERTs are costed by the
// advisor but have no executable row semantics, so passes skip them.
func executable(wl *cadb.Workload) []*cadb.Statement {
	var out []*cadb.Statement
	for _, s := range wl.Statements {
		if s.Insert == nil {
			out = append(out, s)
		}
	}
	return out
}

// spanNames are the statements' span names, built once so that no string is
// assembled between statements.
func spanNames(kind string, stmts []*cadb.Statement) []string {
	names := make([]string, len(stmts))
	for i, s := range stmts {
		names[i] = kind + "[" + s.Label + "]"
	}
	return names
}

// digest fingerprints a query result under the canonical row encoding, so
// equal digests mean byte-identical rows under equal column names.
func digest(res *exec.Result) uint64 {
	h := fnv.New64a()
	for _, c := range res.Schema.Columns {
		h.Write([]byte(strings.ToLower(c.Name)))
		h.Write([]byte{0})
	}
	var buf []byte
	for _, row := range res.Rows {
		buf = storage.EncodeRow(res.Schema, row, buf[:0])
		h.Write(buf)
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// buildOracle runs the workload on a twin database through the plain-row
// executor and records what every statement must return on every pass.
func (r *runner) buildOracle() error {
	db, stmts := r.sp.gen(r.sp.Rows, r.seed), executable(r.sp.parse())
	passes := 1
	for _, s := range stmts {
		if s.Query == nil {
			passes = 1 + r.sp.Warm + r.sp.K
			break
		}
	}
	for p := 0; p < passes; p++ {
		row := make([]uint64, len(stmts))
		var busy time.Duration
		for i, s := range stmts {
			var err error
			t0 := time.Now()
			switch {
			case s.Query != nil:
				var res *exec.Result
				res, err = exec.Run(db, s.Query)
				busy += time.Since(t0)
				if err == nil {
					row[i] = digest(res)
				}
			case s.Update != nil:
				var n int64
				n, err = exec.RunUpdate(db, s.Update)
				busy += time.Since(t0)
				row[i] = uint64(n)
			case s.Delete != nil:
				var n int64
				n, err = exec.RunDelete(db, s.Delete)
				busy += time.Since(t0)
				row[i] = uint64(n)
			}
			if err != nil {
				return fmt.Errorf("oracle: %s: %w", s.Label, err)
			}
		}
		if p == 0 {
			r.oraclePass = busy
		}
		r.oracle = append(r.oracle, row)
	}
	return nil
}

// passOut is one pass: every executable statement once, in workload order.
type passOut struct {
	total        time.Duration // Σ statement latencies
	lat          []time.Duration
	query, write time.Duration
	io           cadb.ExecIOStats
	rowsOut      int64
}

// pass runs pass number idx on the store. Only the statement call sits
// inside the stopwatch; the oracle comparison happens after it stops.
func (r *runner) pass(st *cadb.SegmentStore, stmts []*cadb.Statement, names []string, idx int, parent *span) passOut {
	want := r.oracle[min(idx, len(r.oracle)-1)]
	out := passOut{lat: make([]time.Duration, len(stmts))}
	ps := r.tr.begin(parent, fmt.Sprintf("pass[%d]", idx))
	for i, s := range stmts {
		var (
			res *cadb.ExecResult
			n   int64
			io  cadb.ExecIOStats
			err error
		)
		ss := r.tr.begin(ps, names[i])
		t0 := time.Now()
		switch {
		case s.Query != nil:
			res, err = st.RunQuery(s.Query)
		case s.Update != nil:
			n, io, err = st.RunUpdate(s.Update)
		case s.Delete != nil:
			n, io, err = st.RunDelete(s.Delete)
		}
		d := time.Since(t0)
		ss.end()

		out.lat[i] = d
		out.total += d
		got := uint64(n)
		if res != nil {
			io, got = res.IO, digest(res)
			out.rowsOut += int64(len(res.Rows))
			out.query += d
		} else {
			out.write += d
		}
		out.io.Add(io)
		ss.count("page_reads", float64(io.PageReads))
		ss.count("tuples_decoded", float64(io.TuplesDecoded))
		r.attempted++
		switch {
		case err != nil:
			r.fail("pass %d %s: %v", idx, s.Label, err)
		case got != want[i]:
			r.fail("pass %d %s: result differs from the plain-row oracle", idx, s.Label)
		}
	}
	ps.end()
	return out
}

// repOut is one rep of the loop.
type repOut struct {
	gen, parse, setup, tune, deploy time.Duration
	passes                          []passOut // the K recorded passes
	rec                             *cadb.Recommendation
	fingerprint                     string

	// Pool sizing of the disk workload (0 otherwise).
	poolBytes, workingSet int64

	// Filled on the traced rep only.
	tuneAlloc, passAlloc   uint64 // bytes allocated by Tune / the recorded passes
	estReads, countedReads float64
	pool                   cadb.BufferPoolStats // delta over the recorded passes
}

func (o *repOut) passMean() time.Duration {
	var t time.Duration
	for _, p := range o.passes {
		t += p.total
	}
	return t / time.Duration(len(o.passes))
}

func (o *repOut) loop() time.Duration { return o.tune + o.deploy + o.passMean() }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// rep runs the loop once on a fresh database. Tune is cold on purpose: a DBA
// tunes a database once, so lazy statistics and sample builds are part of
// what they wait for.
func (r *runner) rep(idx int, parent *span) (*repOut, error) {
	out := &repOut{}
	// Collect the previous rep's database first, so that every rep starts
	// from the same heap and no phase pays for its predecessor's garbage.
	runtime.GC()
	rs := r.tr.begin(parent, fmt.Sprintf("rep[%d]", idx))
	defer rs.end()

	// setup: inputs from the seed.
	sp := r.tr.begin(rs, "setup")
	t0 := time.Now()
	var spill string
	if r.sp.Disk {
		var err error
		if spill, err = os.MkdirTemp(r.dir, "spill-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(spill)
	}
	g := r.tr.begin(sp, "datagen")
	db := r.sp.gen(r.sp.Rows, r.seed)
	g.end()
	out.gen = time.Since(t0)
	p := r.tr.begin(sp, "sqlparse")
	t1 := time.Now()
	wl := r.sp.parse()
	out.parse = time.Since(t1)
	p.end()
	out.setup = time.Since(t0)
	sp.end()
	stmts := executable(wl)
	names := spanNames("stmt", stmts)

	// tune.
	opts := cadb.DefaultOptions(db.TotalHeapBytes() / 4)
	r.sp.tweak(&opts)
	var alloc0 uint64
	if r.tr != nil {
		alloc0 = totalAlloc()
	}
	ts := r.tr.begin(rs, "tune")
	t0 = time.Now()
	rec, err := cadb.Tune(db, wl, opts)
	out.tune = time.Since(t0)
	ts.end()
	r.attempted++
	if err != nil {
		r.fail("tune: %v", err)
		return nil, fmt.Errorf("tune: %w", err)
	}
	out.rec = rec
	out.fingerprint = fmt.Sprintf("%016x", fnv64(rec.String()))
	var defs []*cadb.IndexDef
	for _, h := range rec.Config.Indexes() {
		defs = append(defs, h.Def)
	}
	if r.tr != nil {
		out.tuneAlloc = totalAlloc() - alloc0
		cm := cadb.NewCostModel(db)
		for _, s := range stmts {
			out.estReads += cm.Plan(s, rec.Config).EstimatedPageReads()
		}
	}

	// deploy: materialize the recommendation. Segments build lazily, so pass
	// 0 is what forces (and on disk spills) every one the workload touches.
	ds := r.tr.begin(rs, "deploy")
	t0 = time.Now()
	st, poolBytes, err := r.openStore(db, defs, rec.SizeBytes, spill)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	defer st.Close()
	out.poolBytes = poolBytes
	build := time.Since(t0)
	p0 := r.pass(st, stmts, names, 0, ds)
	ds.end()
	out.deploy = build + p0.total
	out.countedReads = float64(p0.io.PageReads)
	out.workingSet = st.DiskBytes()

	for i := 1; i <= r.sp.Warm; i++ {
		r.pass(st, stmts, names, i, rs)
	}
	var pool0 cadb.BufferPoolStats
	if r.tr != nil {
		if st.Pool() != nil {
			pool0 = st.Pool().Stats()
		}
		alloc0 = totalAlloc()
	}
	for i := 1; i <= r.sp.K; i++ {
		out.passes = append(out.passes, r.pass(st, stmts, names, r.sp.Warm+i, rs))
	}
	if r.tr != nil {
		out.passAlloc = totalAlloc() - alloc0
		if st.Pool() != nil {
			s := st.Pool().Stats()
			out.pool = cadb.BufferPoolStats{
				Gets: s.Gets - pool0.Gets, Hits: s.Hits - pool0.Hits, Misses: s.Misses - pool0.Misses,
				Evictions: s.Evictions - pool0.Evictions, BytesRead: s.BytesRead - pool0.BytesRead,
				Prefetched: s.Prefetched - pool0.Prefetched, PeakBytes: s.PeakBytes,
			}
		}
	}
	return out, nil
}

// openStore materializes a design the way the workload serves it: in memory,
// or (Disk) spilled under dir behind a pool of a tenth of the database's
// bytes under that design, with readahead on and scan parallelism 1.
func (r *runner) openStore(db *cadb.Database, defs []*cadb.IndexDef, designBytes int64, dir string) (*cadb.SegmentStore, int64, error) {
	st, err := cadb.NewSegmentStore(db, defs)
	if err != nil || !r.sp.Disk {
		return st, 0, err
	}
	poolBytes := (db.TotalHeapBytes() + designBytes) / 10
	st.SetDiskBacked(dir, cadb.NewBufferPool(poolBytes))
	st.SetPrefetch(32, min(2, nproc()))
	return st, poolBytes, nil
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// endToEndMetrics reduces the reps of the untraced run to the end-to-end
// metrics: each timing is the median over reps.
//
// A pass runs a fixed set of distinct statements, so pooled latencies form
// one tight cluster per statement and a pooled percentile lands on a cluster
// edge or in the gap between two — a value set by timer noise. The statement
// percentiles are therefore taken over the statements' own median latencies:
// p50 is the typical statement, p95 the slow end of the mix (on tpch-update
// the writes and the rebuilds that follow them).
func endToEndMetrics(reps []*repOut) map[string]sample {
	var setup, tune, deploy, pass, loop []time.Duration
	var p50s, p95s, impr []float64
	nStmts := len(reps[0].passes[0].lat)
	all := make([][]float64, nStmts) // per statement, every recorded latency in ms
	for _, o := range reps {
		setup, tune, deploy = append(setup, o.setup), append(tune, o.tune), append(deploy, o.deploy)
		pass, loop = append(pass, o.passMean()), append(loop, o.loop())
		impr = append(impr, o.rec.Improvement)
		mine := make([][]float64, nStmts)
		for _, p := range o.passes {
			for i, d := range p.lat {
				mine[i] = append(mine[i], float64(d)/float64(time.Millisecond))
			}
		}
		for i := range all {
			all[i] = append(all[i], mine[i]...)
		}
		p50s, p95s = append(p50s, overStatements(mine, 0.5)), append(p95s, overStatements(mine, 0.95))
	}
	// The range of a statement percentile is that of the per-rep values.
	stmt := func(q float64, perRep []float64) sample {
		s := summarize("ms", perRep)
		s.Value, s.N = overStatements(all, q), nStmts*len(all[0])
		return s
	}
	return map[string]sample{
		"setup_s":                   summarize("s", seconds(setup)),
		"tune_s":                    summarize("s", seconds(tune)),
		"deploy_s":                  summarize("s", seconds(deploy)),
		"pass_s":                    summarize("s", seconds(pass)),
		"loop_s":                    summarize("s", seconds(loop)),
		"stmt_p50_ms":               stmt(0.5, p50s),
		"stmt_p95_ms":               stmt(0.95, p95s),
		"predicted_improvement_pct": summarize("%", impr),
	}
}

// overStatements returns the q-quantile, across statements, of each
// statement's median latency.
func overStatements(lat [][]float64, q float64) float64 {
	medians := make([]float64, len(lat))
	for i, xs := range lat {
		medians[i] = percentile(xs, 0.5)
	}
	return percentile(medians, q)
}
