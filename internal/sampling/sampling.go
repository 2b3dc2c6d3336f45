// Package sampling implements the sample-management layer of the size
// estimation framework (Sections 4.1 and Appendix B): one amortized uniform
// random sample per table (reused by every index on that table), filtered
// samples for partial indexes, join synopses for key/foreign-key MVs (fact
// sample joined against the full dimension tables), MV samples with GROUP
// BY, and the Adaptive Estimator used to estimate the number of distinct
// groups in an aggregated MV from COUNT(*) frequency statistics.
package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/index"
	"cadb/internal/obs"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// Manager owns the per-table samples and join synopses for one database and
// one sampling fraction f. It is safe for concurrent use: estimation workers
// sizing different indexes on the same table share one lazily built sample.
// Samples and synopses are immutable once published.
type Manager struct {
	DB *catalog.Database
	F  float64 // sampling fraction, e.g. 0.01

	// store supplies samples as prefixes of a shared per-table permutation so
	// every fraction in an f-grid reuses one table scan.
	store *Store

	mu       sync.Mutex
	samples  map[string]*TableSample
	synopses map[string]*Synopsis
}

// Recorder returns the recorder of the manager's store: every manager of one
// store records into it.
func (m *Manager) Recorder() *obs.Recorder { return m.store.Recorder() }

// TableSample is a uniform random sample of one table.
type TableSample struct {
	Table    *catalog.Table
	Rows     []storage.Row
	Fraction float64
}

// Synopsis is a join synopsis: a fact-table sample pre-joined with its full
// dimension tables so foreign keys always find their match (Appendix B.2).
type Synopsis struct {
	Fact   string
	Joins  []workload.Join
	Schema *storage.Schema
	Rows   []storage.Row
}

// NewManager creates a manager with the given sampling fraction over a sample
// store of its own.
func NewManager(db *catalog.Database, f float64, seed int64) *Manager {
	return NewStore(db, seed).Manager(f)
}

// Sample returns (building lazily, then reusing) the uniform sample of the
// named table. This is the amortization of Section 4.1: one sample per
// table, shared by all indexes on that table.
//
// The sample is a prefix of the store's shared per-table permutation. The
// prefix of a uniform random permutation is a uniform sample without
// replacement, and a smaller-f manager's sample is by construction a prefix
// of a larger-f manager's — the nesting that lets one table scan serve every
// point of an f-grid sweep. The permutation build is recorded once per table
// in the store's recorder, whichever manager triggered it.
func (m *Manager) Sample(table string) (*TableSample, error) {
	key := strings.ToLower(table)
	m.mu.Lock()
	if s, ok := m.samples[key]; ok {
		m.mu.Unlock()
		return s, nil
	}
	m.mu.Unlock()
	t := m.DB.Table(table)
	if t == nil {
		return nil, fmt.Errorf("sampling: unknown table %q", table)
	}
	ordered := m.store.ordered(key, t)
	want := int(float64(len(t.Rows)) * m.F)
	if want < 1 {
		want = 1
	}
	if want > len(t.Rows) {
		want = len(t.Rows)
	}
	s := &TableSample{Table: t, Rows: ordered[:want], Fraction: float64(want) / maxf(1, float64(len(t.Rows)))}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.samples[key]; ok {
		return prev, nil
	}
	m.samples[key] = s
	return s, nil
}

// Store shares one deterministic, uniformly random row permutation per table
// across every sampling fraction: managers created by the store draw their
// samples as prefixes of that permutation ("bottom-k" sampling by a per-row
// pseudo-random priority). One scan and one bucket pass per table (see
// permutation) serve all grid points. The store owns the run's recorder (see
// Recorder). Safe for concurrent use; published permutations are immutable.
type Store struct {
	DB   *catalog.Database
	Seed int64

	mu     sync.Mutex
	tables map[string][]storage.Row
	rec    obs.Recorder
}

// NewStore creates a sample store for the database.
func NewStore(db *catalog.Database, seed int64) *Store {
	return &Store{DB: db, Seed: seed, tables: make(map[string][]storage.Row)}
}

// Manager returns a manager at fraction f whose table samples are prefixes
// of the store's shared permutations.
func (s *Store) Manager(f float64) *Manager {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("sampling: invalid fraction %v", f))
	}
	return &Manager{
		DB:       s.DB,
		F:        f,
		store:    s,
		samples:  make(map[string]*TableSample),
		synopses: make(map[string]*Synopsis),
	}
}

// Recorder returns the store's recorder. Every manager, estimator and size
// oracle over the store shares it, so one run's phase times and counters add
// into one Timing however many f-grid points it tries.
func (s *Store) Recorder() *obs.Recorder { return &s.rec }

// ordered returns (building lazily) the table's priority permutation. Built
// outside the lock; a concurrent duplicate build produces the identical
// permutation and the loser discards its copy, so each table's build is
// recorded once.
func (s *Store) ordered(key string, t *catalog.Table) []storage.Row {
	s.mu.Lock()
	if rows, ok := s.tables[key]; ok {
		s.mu.Unlock()
		return rows
	}
	s.mu.Unlock()
	start := time.Now()
	order := permutation(uint64(s.Seed)^uint64(hashString(key)), len(t.Rows))
	rows := make([]storage.Row, len(t.Rows))
	for j, i := range order {
		rows[j] = t.Rows[i]
	}
	elapsed := time.Since(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.tables[key]; ok {
		return prev
	}
	s.tables[key] = rows
	s.rec.Add(func(tm *obs.Timing) { tm.SampleBuild += elapsed })
	return rows
}

// permutation returns the row order of n rows by ascending (priority, row),
// where row i's priority is splitmix64(base + i). The priorities are uniform,
// so their top bits.Len(n) bits spread the rows over at least n buckets,
// about one row each: one counting pass sizes the buckets, the rows enter
// their bucket in row order, and an insertion sort by priority finishes each
// bucket. The sort is stable, so a priority tie keeps row order. O(n)
// expected, with no comparison sort.
func permutation(base uint64, n int) []int {
	type pri struct {
		p uint64
		i int
	}
	shift := 64 - bits.Len(uint(n)) // p >> 64 is 0: one bucket when n is 0
	ends := make([]int, 1<<bits.Len(uint(n)))
	for i := range n {
		ends[splitmix64(base+uint64(i))>>shift]++
	}
	// ends[b] becomes bucket b's start, then advances to its end as the
	// bucket fills.
	sum := 0
	for b, c := range ends {
		ends[b], sum = sum, sum+c
	}
	pris := make([]pri, n)
	for i := range n {
		p := splitmix64(base + uint64(i))
		b := p >> shift
		pris[ends[b]] = pri{p, i}
		ends[b]++
	}
	start := 0
	for _, end := range ends {
		for j := start + 1; j < end; j++ {
			x := pris[j]
			k := j
			for ; k > start && pris[k-1].p > x.p; k-- {
				pris[k] = pris[k-1]
			}
			pris[k] = x
		}
		start = end
	}
	order := make([]int, n)
	for j, pr := range pris {
		order[j] = pr.i
	}
	return order
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mix giving
// each (seed, row) pair an independent uniform priority.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func hashString(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// Synopsis returns (building lazily) the join synopsis for the given fact
// table and join set.
func (m *Manager) Synopsis(fact string, joins []workload.Join) (*Synopsis, error) {
	key := synopsisKey(fact, joins)
	m.mu.Lock()
	if s, ok := m.synopses[key]; ok {
		m.mu.Unlock()
		return s, nil
	}
	m.mu.Unlock()
	fs, err := m.Sample(fact)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	schema, rows, err := index.JoinRowsFrom(m.DB, fact, fs.Table.Schema, fs.Rows, joins)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.synopses[key]; ok {
		// A concurrent builder won the race; discard this copy.
		return s, nil
	}
	s := &Synopsis{Fact: fact, Joins: joins, Schema: schema, Rows: rows}
	m.synopses[key] = s
	m.Recorder().Add(func(t *obs.Timing) { t.SampleBuild += time.Since(start) })
	return s, nil
}

func synopsisKey(fact string, joins []workload.Join) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(fact))
	for _, j := range joins {
		b.WriteString("|")
		b.WriteString(strings.ToLower(j.String()))
	}
	return b.String()
}

// MVSample is the materialization of an MV over the fact sample, plus the
// cardinality estimate for the full MV.
type MVSample struct {
	Schema *storage.Schema
	Rows   []storage.Row
	// SampleGroups is d: the number of groups in the MV sample.
	SampleGroups int64
	// SampleTuples is r: the number of joined+filtered tuples aggregated.
	SampleTuples int64
	// EstimatedRows is the Adaptive Estimator's estimate of the full MV's
	// row count.
	EstimatedRows int64
	// EstimatedFactor is the effective scale-up vs the sample groups.
	Fraction float64
}

// MVSampleFor builds the MV sample (Appendix B.3: CreateMVSample) and
// estimates the full MV cardinality with the Adaptive Estimator.
func (m *Manager) MVSampleFor(mv *index.MVDef) (*MVSample, error) {
	fs, err := m.Sample(mv.Fact)
	if err != nil {
		return nil, err
	}
	schema, rows, err := index.MaterializeMVOver(m.DB, mv, fs.Table.Schema, fs.Rows)
	if err != nil {
		return nil, err
	}
	out := &MVSample{Schema: schema, Rows: rows, Fraction: fs.Fraction}
	if len(mv.GroupBy) == 0 && len(mv.Aggs) == 0 {
		// Join-projection view: scales linearly with the sample fraction.
		out.SampleTuples = int64(len(rows))
		out.SampleGroups = int64(len(rows))
		out.EstimatedRows = int64(float64(len(rows)) / fs.Fraction)
		return out, nil
	}
	ci := schema.ColIndex("__count")
	if ci < 0 {
		return nil, fmt.Errorf("sampling: MV sample missing __count")
	}
	// Frequency statistics from the COUNT column: freq[k] = number of
	// groups whose count is k in the sample.
	freq := make(map[int64]int64, 64)
	var r int64
	for _, row := range rows {
		c := row[ci].Int
		freq[c]++
		r += c
	}
	d := int64(len(rows))
	// n: tuples in the full (joined, filtered) input — fact rows times the
	// observed join+filter factor.
	fact := m.DB.MustTable(mv.Fact)
	filterFactor := float64(r) / maxf(1, float64(len(fs.Rows)))
	n := int64(float64(fact.RowCount()) * filterFactor)
	out.SampleGroups = d
	out.SampleTuples = r
	out.EstimatedRows = AdaptiveEstimator(freq, d, r, n)
	return out, nil
}

// AdaptiveEstimator estimates the number of distinct groups in the full data
// from sample frequency statistics (Appendix B.3; estimator in the spirit of
// Charikar et al. [6]). freq maps an observed group count k to f_k, the
// number of sample groups with that count; d is the number of sample groups,
// r the number of sampled tuples, n the estimated number of tuples in the
// full input.
//
// The estimator blends Chao's f1²/(2·f2) lower-bound estimator with the
// Guaranteed-Error Estimator sqrt(n/r)·f1 + (d − f1): singleton-heavy
// samples scale up aggressively, duplicate-heavy samples converge to d. The
// result is clamped to [d, n].
func AdaptiveEstimator(freq map[int64]int64, d, r, n int64) int64 {
	if d <= 0 {
		return 0
	}
	if r >= n {
		return d // the sample saw everything
	}
	f1 := freq[1]
	f2 := freq[2]
	var est float64
	switch {
	case f1 == 0:
		// Every group was seen at least twice: d is (nearly) complete.
		est = float64(d)
	case f2 > 0:
		// Chao (1984) + GEE blend, weighted by how singleton-heavy the
		// sample is.
		chao := float64(d) + float64(f1*f1)/(2*float64(f2))
		gee := math.Sqrt(float64(n)/float64(r))*float64(f1) + float64(d-f1)
		w := float64(f1) / float64(d)
		est = (1-w)*chao + w*gee
	default:
		est = math.Sqrt(float64(n)/float64(r))*float64(f1) + float64(d-f1)
	}
	if est < float64(d) {
		est = float64(d)
	}
	if est > float64(n) {
		est = float64(n)
	}
	return int64(est + 0.5)
}

// EstimateMVRowsMultiply is the naive "Multiply" baseline from Table 1:
// scale the sample's group count by 1/f.
func EstimateMVRowsMultiply(sampleGroups int64, fraction float64) int64 {
	if fraction <= 0 {
		return sampleGroups
	}
	return int64(float64(sampleGroups)/fraction + 0.5)
}

// EstimateMVRowsOptimizer is the "Optimizer" baseline from Table 1: multiply
// the per-column distinct counts of the group-by columns (the independence
// assumption), capped by the input cardinality.
func EstimateMVRowsOptimizer(db *catalog.Database, mv *index.MVDef) int64 {
	fact := db.Table(mv.Fact)
	if fact == nil {
		return 0
	}
	est := 1.0
	for _, g := range mv.GroupBy {
		t := mv.ColumnTable(db, g)
		if t == nil {
			continue
		}
		cs := t.Stats().Col(g.Col)
		if cs == nil || cs.Distinct <= 0 {
			continue
		}
		est *= float64(cs.Distinct)
	}
	sel := 1.0
	for _, p := range mv.Where {
		if fact.Schema.Has(p.Col) {
			// Selectivity shrinks the input, which bounds the output.
			sel *= predicateSel(fact, p)
		}
	}
	bound := float64(fact.RowCount()) * sel
	if est > bound {
		est = bound
	}
	if est < 1 {
		est = 1
	}
	return int64(est + 0.5)
}

// predicateSel is a tiny local selectivity helper (histogram-free, distinct
// count only) used by the Optimizer baseline so this package does not depend
// on the optimizer package.
func predicateSel(t *catalog.Table, p workload.Predicate) float64 {
	cs := t.Stats().Col(p.Col)
	if cs == nil || cs.Distinct <= 0 {
		return 0.3
	}
	switch p.Op {
	case workload.OpEq:
		return 1 / float64(cs.Distinct)
	case workload.OpNe:
		return 1 - 1/float64(cs.Distinct)
	case workload.OpBetween:
		return 0.25
	default:
		return 0.3
	}
}
