package optimizer

import (
	"testing"

	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/workload"
)

// TestConfigurationPersistence pins the persistent-structure contract: edits
// are O(1) nodes that never disturb ancestors, deep chains materialize
// correctly, and Replace preserves position.
func TestConfigurationPersistence(t *testing.T) {
	a := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}})
	b := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_custkey"}})
	c := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}})

	base := NewConfiguration(a)
	// Force the base view, then derive: the derivation must not disturb it.
	_ = base.Indexes()
	chain := base.With(b).With(c)
	if base.Len() != 1 || len(base.Indexes()) != 1 {
		t.Fatal("derivation mutated the parent")
	}
	if got := chain.Indexes(); len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Fatalf("chain order wrong: %v", chain)
	}

	// Two siblings derived from one parent must not interfere.
	s1 := base.With(b)
	s2 := base.With(c)
	if s1.Indexes()[1] != b || s2.Indexes()[1] != c {
		t.Fatal("sibling derivations interfere")
	}

	// Replace keeps the member's position.
	aRow := build(t, (&index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}}).WithMethod(compress.Row))
	repl := chain.Replace(a, aRow)
	if got := repl.Indexes(); got[0] != aRow || got[1] != b || got[2] != c {
		t.Fatalf("Replace broke ordering: %v", repl)
	}
	if repl.Len() != 3 {
		t.Fatalf("Replace changed Len: %d", repl.Len())
	}

	// Editing a non-member is a no-op that returns the receiver.
	stray := build(t, &index.Def{Table: "part", KeyCols: []string{"p_brand"}})
	if chain.Replace(stray, aRow) != chain || chain.Without(stray) != chain {
		t.Fatal("non-member edit must return the receiver")
	}
}

// TestConfigurationDuplicatePointerEdits pins the multi-occurrence
// semantics inherited from the slice implementation: Without and Replace
// act on every occurrence of the pointer, and Len/SizeBytes stay
// consistent with the materialized view.
func TestConfigurationDuplicatePointerEdits(t *testing.T) {
	d := testDB(t)
	h := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}})
	other := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_custkey"}})
	dup := NewConfiguration().With(h).With(other).With(h)

	gone := dup.Without(h)
	if gone.Len() != 1 || len(gone.Indexes()) != 1 || gone.Indexes()[0] != other {
		t.Fatalf("Without must drop every occurrence: Len=%d view=%v", gone.Len(), gone.Indexes())
	}
	if got, want := gone.SizeBytes(d), sizeContribution(other, d); got != want {
		t.Fatalf("SizeBytes after duplicate removal: %d != %d", got, want)
	}

	repl := build(t, (&index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}}).WithMethod(compress.Row))
	swapped := dup.Replace(h, repl)
	if swapped.Len() != 3 || swapped.Indexes()[0] != repl || swapped.Indexes()[2] != repl {
		t.Fatalf("Replace must swap every occurrence: %v", swapped.Indexes())
	}
	want := 2*sizeContribution(repl, d) + sizeContribution(other, d)
	if got := swapped.SizeBytes(d); got != want {
		t.Fatalf("SizeBytes after duplicate replace: %d != %d", got, want)
	}
}

// TestConfigurationLookups checks the indexed views against the definition
// of Clustered/Contains/ContainsStructure, and SizeBytes along edits.
func TestConfigurationLookups(t *testing.T) {
	d := testDB(t)
	plain1 := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}})
	mv := &index.MVDef{
		Name:    "mv_cfg",
		Fact:    "lineitem",
		GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
	}
	mvIdx := build(t, &index.Def{Table: "mv_cfg", KeyCols: []string{"lineitem_l_shipmode"}, MV: mv})
	plain2 := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipmode"}})
	other := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}})

	cfg := NewConfiguration(plain1, mvIdx, plain2, other)
	if cfg.Clustered("lineitem") != nil {
		t.Fatal("no clustered index expected")
	}
	if !cfg.Contains(plain2.Def) || !cfg.ContainsStructure(plain2.Def.WithMethod(compress.Row)) {
		t.Fatal("Contains/ContainsStructure broken")
	}

	// SizeBytes through a chain of edits must equal the sum over members.
	cl := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderkey"}, Clustered: true})
	grown := cfg.With(cl).Without(plain1)
	var want int64
	for _, x := range grown.Indexes() {
		want += sizeContribution(x, d)
	}
	if got := grown.SizeBytes(d); got != want {
		t.Fatalf("incremental SizeBytes %d != member sum %d", got, want)
	}
	if got := grown.SizeBytes(d); got != want { // cached path
		t.Fatalf("cached SizeBytes %d != %d", got, want)
	}
}
