package index

import (
	"testing"

	"cadb/internal/compress"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// TestDefIDsPinned pins the rendered identity strings byte for byte. Every
// estimation cache, plan node and recommendation fingerprint is keyed on
// them, so a rewrite of the rendering must not move one byte.
func TestDefIDsPinned(t *testing.T) {
	mv := &MVDef{
		Name: "mv_x", Fact: "Lineitem",
		Joins:   []workload.Join{{LeftTable: "lineitem", LeftCol: "L_SuppKey", RightTable: "supplier", RightCol: "s_suppkey"}},
		Where:   []workload.Predicate{{Col: "l_shipdate", Op: workload.OpGe, Lo: storage.DateVal(9000)}},
		GroupBy: []workload.ColRef{{Table: "supplier", Col: "S_NationKey"}, {Col: "l_returnflag"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}, {Func: workload.AggCount}},
	}
	for _, c := range []struct {
		name      string
		def       *Def
		id, strID string
	}{
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
	} {
		if got := c.def.ID(); got != c.id {
			t.Errorf("%s: ID\n got  %q\n want %q", c.name, got, c.id)
		}
		if got := c.def.StructureID(); got != c.strID {
			t.Errorf("%s: StructureID\n got  %q\n want %q", c.name, got, c.strID)
		}
	}
}
