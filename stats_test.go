package cadb

import "testing"

// TestDeploySortsNoStatistics: tune sorts the statistics of the columns the
// workload's predicates name, all of them up front and no other, and nothing
// after it sorts more. Deploying the recommendation and running one full
// pass over it read only columns tune already sorted, and a column no
// statement filters on (l_comment, the widest) is never sorted at all.
func TestDeploySortsNoStatistics(t *testing.T) {
	db := NewTPCH(TPCHConfig{LineitemRows: 8000, Seed: 1})
	rec, defs, stmts := benchDesign(t, db, SelectIntensive(TPCHWorkload()), false)
	sorted := func() map[string]bool {
		out := make(map[string]bool)
		for _, tab := range db.Tables() {
			for _, c := range tab.Schema.Names() {
				if tab.Stats().Sorted(c) {
					out[tab.Name+"."+c] = true
				}
			}
		}
		return out
	}
	tuned := sorted()
	if n := rec.Timing.StatsColumns; n == 0 || n != uint64(len(tuned)) {
		t.Fatalf("tune sorted %d columns up front and %d in all: a reader the fan-out misses sorts lazily", n, len(tuned))
	}

	st := openBenchStore(t, db, rec, defs, false, "")
	defer st.Close()
	for _, s := range stmts {
		runBenchStatement(t, st, s)
	}
	for c := range sorted() {
		if !tuned[c] {
			t.Errorf("deploy or the pass sorted %s, which tune had not", c)
		}
	}
	if tuned["lineitem.l_comment"] {
		t.Error("lineitem.l_comment was sorted")
	}
}
