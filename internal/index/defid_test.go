package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cadb/internal/compress"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// TestDefIDsPinned pins the rendered identity strings byte for byte. Every
// estimation cache, plan node and recommendation fingerprint is keyed on
// them, so a rewrite of the rendering must not move one byte.
func TestDefIDsPinned(t *testing.T) {
	for _, c := range pinnedDefs() {
		if got := c.def.ID(); got != c.id {
			t.Errorf("%s: ID\n got  %q\n want %q", c.name, got, c.id)
		}
		if got := c.def.StructureID(); got != c.strID {
			t.Errorf("%s: StructureID\n got  %q\n want %q", c.name, got, c.strID)
		}
	}
}

type pinnedDef struct {
	name      string
	def       *Def
	id, strID string
}

// pinnedDefs returns fresh, unidentified definitions of every kind —
// clustered, mixed, partial, MV — with their identity strings.
func pinnedDefs() []pinnedDef {
	mv := &MVDef{
		Name: "mv_x", Fact: "Lineitem",
		Joins:   []workload.Join{{LeftTable: "lineitem", LeftCol: "L_SuppKey", RightTable: "supplier", RightCol: "s_suppkey"}},
		Where:   []workload.Predicate{{Col: "l_shipdate", Op: workload.OpGe, Lo: storage.DateVal(9000)}},
		GroupBy: []workload.ColRef{{Table: "supplier", Col: "S_NationKey"}, {Col: "l_returnflag"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}, {Func: workload.AggCount}},
	}
	return []pinnedDef{
		{"clustered", &Def{Table: "LineItem", KeyCols: []string{"L_ShipDate"}, Clustered: true, Method: compress.Page},
			"CL:lineitem(l_shipdate) PAGE",
			"CL:lineitem(l_shipdate)"},
		{"mixed design", &Def{Table: "orders", KeyCols: []string{"o_orderdate", "O_CustKey"}, IncludeCols: []string{"o_totalprice", "O_Comment", "o_clerk"},
			Method: compress.Row, ColMethods: map[string]compress.Method{"o_comment": compress.Page, "o1": compress.RLE, "o_clerk": compress.GlobalDict, "o_orderdate": compress.Row}},
			"orders(o_orderdate,o_custkey incl o_comment,o_clerk,o_totalprice) ROW[o1=RLE,o_clerk=GDICT,o_comment=PAGE]",
			"orders(o_orderdate,o_custkey incl o_comment,o_clerk,o_totalprice)"},
		{"partial", &Def{Table: "lineitem", KeyCols: []string{"l_partkey"}, IncludeCols: []string{"l_quantity"},
			Where: []workload.Predicate{{Table: "lineitem", Col: "L_Quantity", Op: workload.OpBetween, Lo: storage.IntVal(5), Hi: storage.IntVal(15)}, {Col: "l_shipmode", Op: workload.OpEq, Lo: storage.StringVal("AIR")}}},
			"lineitem(l_partkey incl l_quantity) where lineitem.l_quantity between 5 and 15 where l_shipmode = \"air\" NONE",
			"lineitem(l_partkey incl l_quantity) where lineitem.l_quantity between 5 and 15 where l_shipmode = \"air\""},
		{"mv", &Def{Table: "mv_x", KeyCols: []string{"supplier_s_nationkey", "l_returnflag"}, IncludeCols: []string{"sum_lineitem_l_extendedprice", "__count"}, MV: mv, Method: compress.GlobalDict},
			"mv_x(supplier_s_nationkey,l_returnflag incl __count,sum_lineitem_l_extendedprice) on mv{lineitem|j:lineitem.l_suppkey = supplier.s_suppkey|w:l_shipdate >= date(9000)|g:supplier.s_nationkey|g:l_returnflag|a:sum(lineitem.l_extendedprice)|a:count(*)} GDICT",
			"mv_x(supplier_s_nationkey,l_returnflag incl __count,sum_lineitem_l_extendedprice) on mv{lineitem|j:lineitem.l_suppkey = supplier.s_suppkey|w:l_shipdate >= date(9000)|g:supplier.s_nationkey|g:l_returnflag|a:sum(lineitem.l_extendedprice)|a:count(*)}"},
	}
}

// TestDefIdentityConcurrent renders shared definitions' identities from
// many goroutines at once, as the enumeration workers do: every caller sees
// the pinned strings, and the derived variants render theirs while the
// source is being identified (run under the race detector in CI).
func TestDefIdentityConcurrent(t *testing.T) {
	const workers, rounds = 8, 50
	for round := 0; round < rounds; round++ {
		cases := pinnedDefs() // unidentified: the workers race the first render
		var wg sync.WaitGroup
		errs := make(chan string, workers*len(cases)*4)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range cases {
					c := cases[(k+w)%len(cases)]
					if got := c.def.ID(); got != c.id {
						errs <- fmt.Sprintf("%s: ID %q", c.name, got)
					}
					if got := c.def.StructureID(); got != c.strID {
						errs <- fmt.Sprintf("%s: StructureID %q", c.name, got)
					}
					if got, want := c.def.Uncompressed().ID(), c.strID+" NONE"; got != want {
						errs <- fmt.Sprintf("%s: Uncompressed().ID() %q, want %q", c.name, got, want)
					}
					if got, want := c.def.WithColMethod("zz", compress.RLE).StructureID(), c.strID; got != want {
						errs <- fmt.Sprintf("%s: WithColMethod StructureID %q, want %q", c.name, got, want)
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// TestRepeatedIDAllocatesNothing: once rendered, ID and StructureID are a
// load from the Def.
func TestRepeatedIDAllocatesNothing(t *testing.T) {
	for _, c := range pinnedDefs() {
		c.def.ID()
		if n := testing.AllocsPerRun(100, func() { c.def.ID(); c.def.StructureID() }); n != 0 {
			t.Errorf("%s: a repeated ID allocates %v objects", c.name, n)
		}
	}
}

// TestOverrideOrderMatchesEntryStrings: cmpOverride orders a design's
// overrides exactly as their rendered "col=METHOD" entries sort, including
// columns that are prefixes of one another ("o" before "o1", "o_x" after
// "o=").
func TestOverrideOrderMatchesEntryStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	methods := append([]compress.Method{compress.None}, compress.Methods...)
	const alphabet = "o1_z"
	for trial := 0; trial < 2000; trial++ {
		var ov []override
		seen := map[string]bool{}
		for n := 1 + rng.Intn(8); len(ov) < n; {
			col := string(alphabet[rng.Intn(len(alphabet))])
			for rng.Intn(2) == 0 {
				col += string(alphabet[rng.Intn(len(alphabet))])
			}
			if !seen[col] {
				seen[col] = true
				ov = append(ov, override{col, methods[rng.Intn(len(methods))]})
			}
		}
		entry := func(o override) string { return o.col + "=" + o.m.String() }
		want := make([]string, len(ov))
		for i, o := range ov {
			want[i] = entry(o)
		}
		slices.Sort(want)
		slices.SortFunc(ov, cmpOverride)
		for i, o := range ov {
			if entry(o) != want[i] {
				t.Fatalf("cmpOverride order %v, entry strings sort %v", ov, want)
			}
		}
	}
}
