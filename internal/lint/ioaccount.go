package lint

// ioaccount: the estimated-vs-measured loop (the loop benchmark's
// optimizer.page_read_err_pct, ext-pool's est/counted column) is only
// meaningful if the measured side is trustworthy, and it is trustworthy
// because storage.IOStats counters are mutated at a handful of
// chokepoints — the page-fetch pin site, the codec
// decode accounting in runState.readPage / Cursor.NextBatch, prefetcher
// flush, and the IOStats.Add reducer. A counter bumped anywhere else is a
// smuggled number that silently skews every ratio the benchmarks report.
// This check flags any write (assignment, op-assignment, ++/--) to a field
// of storage.IOStats outside the allowlisted chokepoint functions.
//
// The allowlist (Config.IOChokepoints, DefaultIOChokepoints) is part of the
// invariant's documentation: extending it is a reviewed decision made in
// source, not a local workaround.

import (
	"go/ast"
)

const ioStatsPkg = "cadb/internal/storage"
const ioStatsName = "IOStats"

func runIOAccount(p *pass) {
	p.eachFuncDecl(func(file *ast.File, fd *ast.FuncDecl) {
		qn := qualifiedFuncName(p.pkg.ImportPath, fd)
		if inList(qn, p.cfg.IOChokepoints) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					p.checkIOWrite(lhs, qn)
				}
			case *ast.IncDecStmt:
				p.checkIOWrite(s.X, qn)
			}
			return true
		})
	})
}

// checkIOWrite flags lhs when it is a field selector of storage.IOStats.
func (p *pass) checkIOWrite(lhs ast.Expr, enclosing string) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := p.pkg.Info.Selections[sel]
	if selection == nil || !namedTypeIs(selection.Recv(), ioStatsPkg, ioStatsName) {
		return
	}
	p.reportf(lhs.Pos(), "ioaccount",
		"IOStats counter %s mutated in %s, which is not an accounting chokepoint: route it through IOStats.Add or a chokepoint (see lint.DefaultIOChokepoints)",
		sel.Sel.Name, enclosing)
}
