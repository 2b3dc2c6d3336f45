package core

import (
	"sort"
	"strings"

	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/par"
	"cadb/internal/workload"
)

// generateCandidates produces the syntactically relevant index structures
// (uncompressed definitions; compression variants are expanded later) for
// every query in the workload, de-duplicated by structure identity.
func (a *Advisor) generateCandidates() []*index.Def {
	seen := make(map[string]*index.Def)
	add := func(d *index.Def) {
		if d == nil || len(d.KeyCols) == 0 {
			return
		}
		if len(d.KeyCols) > maxKeyCols {
			d.KeyCols = d.KeyCols[:maxKeyCols]
		}
		id := d.StructureID()
		if _, dup := seen[id]; !dup {
			seen[id] = d
		}
	}
	for _, s := range a.WL.Statements {
		q := statementShape(s)
		if q == nil {
			continue
		}
		a.candidatesForQuery(q, add)
	}
	// Clustered-index candidates for fact tables: even at a 0% budget,
	// compressing the base table frees space (Appendix D).
	for _, t := range a.DB.Tables() {
		if len(t.PK) > 0 {
			add(&index.Def{Table: t.Name, KeyCols: t.PK[:1], Clustered: true})
		}
	}
	out := make([]*index.Def, 0, len(seen))
	for _, d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StructureID() < out[j].StructureID() })
	return out
}

// statementShape returns the query shape candidate generation and selection
// work from: the query itself for SELECTs, and the qualifying-row lookup —
// a single-table pseudo-query over the WHERE predicates — for predicated
// UPDATE/DELETE statements. Bulk inserts (and predicate-free writes) have no
// lookup to serve, so they contribute no candidates.
func statementShape(s *workload.Statement) *workload.Query {
	if s.Query != nil {
		return s.Query
	}
	if t, ok := s.WriteTable(); ok {
		if preds := s.WritePreds(); len(preds) > 0 {
			return &workload.Query{Tables: []string{t}, Preds: preds}
		}
	}
	return nil
}

// hasColumn reports whether the named table exists and has the column: the
// resolver Query.PredsOn and ColumnsOn take.
func (a *Advisor) hasColumn(table, col string) bool {
	t := a.DB.Table(table)
	return t != nil && t.Schema.Has(col)
}

// candidatesForQuery emits candidate structures for one query.
func (a *Advisor) candidatesForQuery(q *workload.Query, add func(*index.Def)) {
	for _, table := range q.Tables {
		t := a.DB.Table(table)
		if t == nil {
			continue
		}
		preds := q.PredsOn(table, a.hasColumn)
		used := q.ColumnsOn(table, a.hasColumn)

		// Partition predicates into equality and range, ordering keys
		// equality-first (the standard sarg rule).
		var eqCols, rangeCols []string
		for _, p := range preds {
			if !p.Sargable() {
				continue
			}
			if p.IsEquality() {
				eqCols = appendUnique(eqCols, p.Col)
			} else {
				rangeCols = appendUnique(rangeCols, p.Col)
			}
		}
		var keys []string
		keys = append(keys, eqCols...)
		if len(rangeCols) > 0 {
			keys = append(keys, rangeCols[0])
		}
		if len(keys) > 0 {
			include := minus(used, keys)
			add(&index.Def{Table: table, KeyCols: keys})
			if len(include) > 0 {
				add(&index.Def{Table: table, KeyCols: keys, IncludeCols: include})
			}
			add(&index.Def{Table: table, KeyCols: keys[:1], Clustered: true})
		}

		// Group-by driven covering index.
		var groupCols []string
		for _, g := range q.GroupBy {
			if (g.Table == "" && t.Schema.Has(g.Col)) || strings.EqualFold(g.Table, table) {
				groupCols = appendUnique(groupCols, g.Col)
			}
		}
		if len(groupCols) > 0 {
			add(&index.Def{Table: table, KeyCols: groupCols, IncludeCols: minus(used, groupCols)})
		}

		// Join-driven index on the fact-side join column.
		for _, j := range q.Joins {
			var jc string
			if strings.EqualFold(j.LeftTable, table) {
				jc = j.LeftCol
			} else if strings.EqualFold(j.RightTable, table) {
				jc = j.RightCol
			} else {
				continue
			}
			add(&index.Def{Table: table, KeyCols: []string{jc}, IncludeCols: minus(used, []string{jc})})
		}

		// Partial index: filter on one predicate, key on the others.
		if a.Opts.EnablePartial && len(preds) >= 2 {
			for i, fp := range preds {
				if !fp.Sargable() {
					continue
				}
				rest := make([]string, 0, len(preds)-1)
				for k, p := range preds {
					if k != i && p.Sargable() {
						rest = appendUnique(rest, p.Col)
					}
				}
				if len(rest) == 0 {
					continue
				}
				add(&index.Def{
					Table:       table,
					KeyCols:     rest,
					IncludeCols: minus(used, append(append([]string{}, rest...), fp.Col)),
					Where:       []workload.Predicate{fp},
				})
				break // one partial candidate per query-table is plenty
			}
		}
	}

	// MV candidate mirroring the query's joins + grouping (Appendix B).
	if a.Opts.EnableMV && (len(q.GroupBy) > 0 && len(q.Aggs) > 0) {
		if mv := mvFromQuery(q); mv != nil {
			add(MVIndexDef(mv))
		}
	}
}

// mvFromQuery derives the MV definition that can answer the query: same fact
// and joins, WHERE restricted to predicates not on group-by columns (those
// can filter the MV at query time, making the MV reusable across parameter
// values).
func mvFromQuery(q *workload.Query) *index.MVDef {
	if len(q.Tables) == 0 {
		return nil
	}
	mv := &index.MVDef{
		Fact:    q.Tables[0],
		Joins:   q.Joins,
		GroupBy: q.GroupBy,
		Aggs:    q.Aggs,
	}
	for _, p := range q.Preds {
		onGroup := false
		for _, g := range q.GroupBy {
			if strings.EqualFold(g.Col, p.Col) {
				onGroup = true
				break
			}
		}
		if !onGroup {
			mv.Where = append(mv.Where, p)
		}
	}
	mv.Name = "mv_" + shortHash(mv.Fingerprint())
	return mv
}

// MVIndexDef builds the index definition over a materialized view: keyed by
// the group-by columns, carrying the aggregates and the hidden count, each
// under the view's own column name (index.GroupedColumns).
func MVIndexDef(mv *index.MVDef) *index.Def {
	cols := index.GroupedColumns(mv.GroupBy, mv.Aggs)
	n := len(mv.GroupBy)
	return &index.Def{Table: mv.Name, KeyCols: cols[:n:n], IncludeCols: cols[n:], MV: mv}
}

func shortHash(s string) string {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	const digits = "0123456789abcdef"
	out := make([]byte, 8)
	for i := range out {
		out[i] = digits[h&0xF]
		h >>= 4
	}
	return string(out)
}

func appendUnique(list []string, s string) []string {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return list
		}
	}
	return append(list, s)
}

func minus(all, remove []string) []string {
	var out []string
	for _, c := range all {
		found := false
		for _, r := range remove {
			if strings.EqualFold(c, r) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, c)
		}
	}
	return out
}

// selectCandidates runs per-query candidate selection: classic top-k by cost
// or the size/cost skyline (Section 6.1). The union over queries is the
// enumeration candidate set. hypos is in ID order, and so is the result.
func (a *Advisor) selectCandidates(hypos []*optimizer.HypoIndex) []*optimizer.HypoIndex {
	// Each statement picks among the candidates relevant to it, scored by
	// the statement's cost under the single-index configuration
	// (CostModel.CostEach: the cost model's atomic (statement, structure)
	// term, so scoring also leaves the memo warm for enumeration; a
	// candidate the statement cannot use costs the empty configuration's
	// price, computed once per statement). Predicated UPDATE/DELETE
	// statements are scored the same way through their own plans
	// (qualifying-row lookup + maintenance), so an index that speeds an
	// update's WHERE clause can survive selection. Statements are
	// independent: they fan out over the worker pool, each writing its picks
	// (positions in hypos) to its own slot.
	picks := make([][]int, len(a.WL.Statements))
	par.For(a.workers(), len(a.WL.Statements), func(si int) {
		s := a.WL.Statements[si]
		shape := statementShape(s)
		if shape == nil {
			return
		}
		relevant := relevantHypos(shape, hypos)
		cands := make([]*optimizer.HypoIndex, len(relevant))
		for i, at := range relevant {
			cands[i] = hypos[at]
		}
		costs := a.CM.CostEach(s, cands)
		type scored struct {
			at   int
			cost float64
			size int64
		}
		scoredList := make([]scored, len(relevant))
		for i, at := range relevant {
			scoredList[i] = scored{at: at, cost: costs[i], size: hypos[at].Bytes}
		}
		if a.Opts.Skyline {
			// Keep all non-dominated (cost, size) candidates.
			for i, x := range scoredList {
				dominated := false
				for j, y := range scoredList {
					if i == j {
						continue
					}
					if y.cost <= x.cost && y.size <= x.size && (y.cost < x.cost || y.size < x.size) {
						dominated = true
						break
					}
				}
				if !dominated {
					picks[si] = append(picks[si], x.at)
				}
			}
			return
		}
		// Tie-break equal costs by index ID (position in hypos): many
		// relevant-but-unusable indexes cost exactly the base scan, so an
		// unstable cost-only sort would make the top-k cut — and with it the
		// recommendation — vary run to run.
		sort.Slice(scoredList, func(i, j int) bool {
			if scoredList[i].cost != scoredList[j].cost {
				return scoredList[i].cost < scoredList[j].cost
			}
			return scoredList[i].at < scoredList[j].at
		})
		for _, x := range scoredList[:min(topK, len(scoredList))] {
			picks[si] = append(picks[si], x.at)
		}
	})

	chosen := make([]bool, len(hypos))
	// Clustered candidates always survive selection: their benefit is
	// space (when compressed), which per-query cost ranking cannot see.
	for at, h := range hypos {
		chosen[at] = h.Def.Clustered
	}
	for _, stmtPicks := range picks {
		for _, at := range stmtPicks {
			chosen[at] = true
		}
	}
	var out []*optimizer.HypoIndex
	for at, h := range hypos {
		if chosen[at] {
			out = append(out, h)
		}
	}
	return out
}

// relevantHypos returns the positions of the hypothetical indexes that could
// plausibly serve the query (same table or matching MV fact), in hypos order.
func relevantHypos(q *workload.Query, hypos []*optimizer.HypoIndex) []int {
	var out []int
	for at, h := range hypos {
		if h.Def.MV != nil {
			if len(q.Tables) > 0 && strings.EqualFold(h.Def.MV.Fact, q.Tables[0]) {
				out = append(out, at)
			}
			continue
		}
		for _, t := range q.Tables {
			if strings.EqualFold(h.Def.Table, t) {
				out = append(out, at)
				break
			}
		}
	}
	return out
}
