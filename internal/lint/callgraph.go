// Module function index for the pairing rule, plus the type helpers the
// pairing and exhaustive rules share. Cross-package function identity is
// symbolic (package path + type name + function name) because the loader
// type-checks each package against export data, so the same function seen
// from two packages is two distinct *types.Func objects.

package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// funcKey names one module function symbolically: package path, receiver
// type name ("" for free functions), function name.
type funcKey struct {
	pkg  string
	recv string
	name string
}

// shortPkg trims the module prefix for findings: "blockhead/internal/flash"
// reads better as "flash".
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// funcNode is one module function: its declaration and package.
type funcNode struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// module indexes every function declared in the loaded packages.
type module struct {
	funcs map[funcKey]*funcNode
	order []funcKey // sorted, for deterministic iteration
}

func buildModule(pkgs []*Package) *module {
	m := &module{funcs: map[funcKey]*funcNode{}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				k, ok := keyOfFunc(obj)
				if !ok {
					continue
				}
				m.funcs[k] = &funcNode{pkg: p, decl: fd}
			}
		}
	}
	for k := range m.funcs {
		m.order = append(m.order, k)
	}
	sort.Slice(m.order, func(i, j int) bool {
		a, b := m.order[i], m.order[j]
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		if a.recv != b.recv {
			return a.recv < b.recv
		}
		return a.name < b.name
	})
	return m
}

// keyOfFunc builds the symbolic key for a (possibly imported) function.
// Interface methods have no analyzable body and resolve to no key.
func keyOfFunc(fn *types.Func) (funcKey, bool) {
	if fn.Pkg() == nil {
		return funcKey{}, false
	}
	k := funcKey{pkg: fn.Pkg().Path(), name: fn.Name()}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return funcKey{}, false
	}
	if r := sig.Recv(); r != nil {
		n := namedOf(r.Type())
		if n == nil || n.Obj().Pkg() == nil {
			return funcKey{}, false
		}
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			return funcKey{}, false
		}
		k.recv = n.Obj().Name()
		k.pkg = n.Obj().Pkg().Path()
	}
	return k, true
}

// namedOf unwraps pointers to the underlying named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// calleeOf resolves a call expression's static callee; nil for builtins,
// conversions, function values, and dynamic (interface) calls.
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
