package index_test

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// fieldByField builds a fresh, unidentified Def equal to d field by field,
// so its ID is rendered from scratch rather than inherited.
func fieldByField(d *index.Def) *index.Def {
	return &index.Def{Table: d.Table, KeyCols: slices.Clone(d.KeyCols), IncludeCols: slices.Clone(d.IncludeCols),
		Clustered: d.Clustered, Where: slices.Clone(d.Where), MV: d.MV, Method: d.Method, ColMethods: maps.Clone(d.ColMethods)}
}

// loopDefs tunes the benchmark's four loop workloads (at reduced row counts)
// and returns every definition the runs sized — the candidates' compression
// variants, the deduction graph's helpers, partial and MV indexes and the
// refinement sweep's mixed per-column designs — plus the recommended
// members.
func loopDefs(t *testing.T) []*index.Def {
	tpch := func() *catalog.Database { return datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 1}) }
	sales := func() *catalog.Database {
		return datagen.NewSales(datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 1})
	}
	var defs []*index.Def
	for _, c := range []struct {
		name string
		db   *catalog.Database
		wl   *workload.Workload
		wide bool
		par  int
	}{
		{name: "tpch-select", db: tpch(), wl: workloads.SelectIntensive(workloads.MustTPCH()), par: 1},
		{name: "tpch-update", db: tpch(), wl: workloads.UpdateIntensive(workloads.MustTPCHWithUpdates()), par: 1},
		{name: "sales-disk", db: sales(), wl: workloads.SelectIntensive(workloads.MustSales(1)), par: 1},
		{name: "sales-wide", db: sales(), wl: workloads.SelectIntensive(workloads.MustSales(1)), wide: true, par: 2},
	} {
		opts := core.DefaultOptions(c.db.TotalHeapBytes() / 4)
		opts.EnableMV, opts.EnablePartial = c.wide, c.wide
		opts.Parallelism = c.par
		rec, err := core.New(c.db, c.wl, opts).Recommend()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, n := range rec.EstimationPlan.Nodes {
			defs = append(defs, n.Def)
		}
		for _, h := range rec.Config.Indexes() {
			defs = append(defs, h.Def)
		}
	}
	return defs
}

// TestCachedIdentityMatchesFreshRender: the identity a Def caches — and the
// structure identity its WithMethod, WithColMethod and Uncompressed
// variants inherit — is byte for byte what a fresh Def with the same fields
// renders, on every definition the four loop workloads produce.
func TestCachedIdentityMatchesFreshRender(t *testing.T) {
	// fieldByField copies every exported field; a new one fails here until
	// it is copied too.
	exported := 0
	for _, f := range reflect.VisibleFields(reflect.TypeFor[index.Def]()) {
		if f.IsExported() {
			exported++
		}
	}
	if exported != 8 {
		t.Fatalf("index.Def has %d exported fields; fieldByField copies 8", exported)
	}
	check := func(what string, d *index.Def) {
		t.Helper()
		fresh := fieldByField(d)
		if got, want := d.ID(), fresh.ID(); got != want {
			t.Errorf("%s: ID\n got  %q\n want %q", what, got, want)
		}
		if got, want := d.StructureID(), fresh.StructureID(); got != want {
			t.Errorf("%s: StructureID\n got  %q\n want %q", what, got, want)
		}
	}
	methods := append([]compress.Method{compress.None}, compress.Methods...)
	// Plus a hand-built mixed design keyed in upper case: a WithColMethod
	// variant adds the lower-case key beside it and renders both entries.
	defs := append(loopDefs(t), &index.Def{Table: "orders", KeyCols: []string{"O_Comment", "o_clerk"}, Method: compress.Row,
		ColMethods: map[string]compress.Method{"O_Comment": compress.Page, "o_clerk": compress.RLE}})
	var mv, partial, mixed int
	for _, d := range defs {
		switch {
		case d.IsMV():
			mv++
		case d.IsPartial():
			partial++
		}
		if d.IsMixed() {
			mixed++
		}
		check(d.String(), d)
		// Variants of an identified Def inherit its structure identity;
		// variants of a fresh one render theirs.
		for _, src := range []*index.Def{d, fieldByField(d)} {
			check(d.String()+" Uncompressed", src.Uncompressed())
			cols := d.Columns()
			for _, m := range methods {
				check(d.String()+" WithMethod "+m.String(), src.WithMethod(m))
				check(d.String()+" WithColMethod "+cols[0]+" "+m.String(), src.WithColMethod(cols[0], m))
				check(d.String()+" WithColMethod x2 "+m.String(), src.WithColMethod(cols[len(cols)-1], m).WithColMethod("__rid", compress.RLE))
			}
		}
	}
	t.Logf("%d definitions: %d MV, %d partial, %d mixed", len(defs), mv, partial, mixed)
	if mv == 0 || partial == 0 || mixed == 0 {
		t.Fatalf("the loop workloads produced %d MV, %d partial and %d mixed definitions; the check needs each kind", mv, partial, mixed)
	}
}
