package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkConcurrency flags goroutines, channels, select, and sync primitives.
// The simulator is a single-threaded virtual-time event loop: concurrency in
// a model package would both break run-to-run determinism and invalidate the
// busy-until resource model. The only legitimate homes for goroutines are
// the HTTP telemetry server and the command/example binaries, which are
// scope-exempt (see concurrencyExempt), and the part pool
// (internal/sim/pool), which exists to run independent jobs on goroutines
// and is held to a different contract instead: because its workers do run
// concurrently, no function in the package may write package-level state —
// mutable state belongs to a job or to the caller's stack.
func checkConcurrency(p *Package, rep *reporter) {
	if concurrencyExempt(p.Path) {
		return
	}
	if partPool(p.Path) {
		checkPoolGlobals(p, rep)
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.GoStmt:
				rep.findf(e.Pos(), "concurrency",
					"go statement spawns a goroutine; the sim core is a single-threaded virtual-time loop (concurrency belongs in telemetry/httpserve and cmd/)")
			case *ast.SelectStmt:
				rep.findf(e.Pos(), "concurrency",
					"select statement implies channel concurrency; schedule virtual-time events on the sim loop instead")
			case *ast.SendStmt:
				rep.findf(e.Pos(), "concurrency",
					"channel send; the sim core communicates through direct calls in virtual-time order")
			case *ast.UnaryExpr:
				if e.Op == token.ARROW {
					rep.findf(e.Pos(), "concurrency",
						"channel receive; the sim core communicates through direct calls in virtual-time order")
				}
			case *ast.ChanType:
				rep.findf(e.Pos(), "concurrency",
					"channel type; the sim core is single-threaded and must not hold channels")
			case *ast.SelectorExpr:
				x, ok := e.X.(*ast.Ident)
				if !ok {
					return true
				}
				if pn, ok := p.Info.Uses[x].(*types.PkgName); ok {
					if pp := pn.Imported().Path(); pp == "sync" || pp == "sync/atomic" {
						rep.findf(e.Pos(), "concurrency",
							"%s.%s: the sim core is single-threaded and needs no synchronization", pp, e.Sel.Name)
					}
				}
			}
			return true
		})
	}
}

// checkPoolGlobals is the part pool's side of the concurrency bargain: the
// package may spawn goroutines, but every write must land on memory owned
// by one worker or by the caller. A write whose access path roots in a
// package-level var is shared across workers by construction and is a
// finding.
func checkPoolGlobals(p *Package, rep *reporter) {
	flag := func(lv ast.Expr, pos token.Pos) {
		if obj := rootPkgVar(p, lv); obj != nil {
			rep.findf(pos, "concurrency",
				"write to package-level %s from the part pool; workers run concurrently — state must live on a job or the caller", obj.Name())
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					flag(lhs, st.Pos())
				}
			case *ast.IncDecStmt:
				flag(st.X, st.Pos())
			}
			return true
		})
	}
}

// rootPkgVar resolves an lvalue's access path (selectors, indexes, derefs)
// to its root identifier and returns that object if it is a package-level
// var — of this package or any other.
func rootPkgVar(p *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := p.Info.Uses[x]
			if obj == nil {
				obj = p.Info.Defs[x]
			}
			if obj != nil && isPkgVar(obj) {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
}

// isPkgVar reports whether obj is a package-level variable.
func isPkgVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
