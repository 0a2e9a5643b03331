package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Ownership enforces the single-goroutine contract: a type whose
// declaration carries a `// pnmlint:single-goroutine` marker holds
// unsynchronized mutable state that exactly one goroutine may own for the
// instance's lifetime (sink.Tracker, the verifiers, the resolvers). The
// analyzer flags any method call on such a type inside a go statement or
// inside a goroutine-launched function literal — unless the receiver is
// state the goroutine built for itself, which is the sanctioned
// one-private-chain-per-goroutine pattern internal/parallel relies on.
//
// "Built for itself" covers the two shapes worker code takes in this
// repository: a receiver rooted at an identifier declared inside the
// goroutine's function literal (`own := NewTracker(...); own.Observe(m)`,
// including selector/index chains like `wk.resolver.Resolve(...)` on a
// local `wk`), and a receiver produced by a call made inside the literal
// (`factory().Verify(m)` — the worker-constructs-own-instance pattern,
// where a factory closure invoked inside the worker goroutine returns
// that worker's private chain).
type Ownership struct{}

// markerRx matches the single-goroutine marker in a doc-comment line.
var markerRx = regexp.MustCompile(`^//\s*pnmlint:single-goroutine\b`)

// Name implements Analyzer.
func (*Ownership) Name() string { return "ownership" }

// Doc implements Analyzer.
func (*Ownership) Doc() string {
	return "no goroutine-crossing method calls on // pnmlint:single-goroutine types"
}

// Run implements Analyzer.
func (o *Ownership) Run(prog *Program) []Diagnostic {
	marked := markedTypes(prog)
	if len(marked) == 0 {
		return nil
	}
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				out = append(out, o.checkGo(prog, pkg, g, marked)...)
				return true
			})
		}
	}
	return out
}

// markedTypes collects every type whose declaration doc carries the
// single-goroutine marker, across all analyzed packages.
func markedTypes(prog *Program) map[*types.TypeName]bool {
	marked := make(map[*types.TypeName]bool)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if !hasMarker(gd.Doc) && !hasMarker(ts.Doc) {
						continue
					}
					if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						marked[tn] = true
					}
				}
			}
		}
	}
	return marked
}

// hasMarker reports whether a doc comment group contains the marker.
func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if markerRx.MatchString(c.Text) {
			return true
		}
	}
	return false
}

// checkGo inspects one go statement — the spawned call expression and
// everything inside it, including function-literal bodies — for method
// uses of marked types.
func (o *Ownership) checkGo(prog *Program, pkg *Package, g *ast.GoStmt, marked map[*types.TypeName]bool) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(g.Call, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.MethodVal {
			return true
		}
		tn := receiverTypeName(s.Recv())
		if tn == nil || !marked[tn] {
			return true
		}
		if lit := enclosingLit(g.Call, sel.Pos()); lit != nil && goroutineOwned(pkg.Info, sel.X, lit) {
			// The goroutine built its own instance: one private chain per
			// goroutine is exactly the sanctioned pattern.
			return true
		}
		out = append(out, Diagnostic{
			Pos:      prog.Fset.Position(sel.Pos()),
			Analyzer: o.Name(),
			Message: fmt.Sprintf("method %s.%s used in a goroutine but %s is marked "+
				"// pnmlint:single-goroutine; give the goroutine its own instance",
				tn.Name(), sel.Sel.Name, tn.Name()),
		})
		return true
	})
	return out
}

// receiverTypeName unwraps a method receiver type to its named type.
func receiverTypeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// enclosingLit returns the innermost function literal within root that
// contains pos, or nil.
func enclosingLit(root ast.Node, pos token.Pos) *ast.FuncLit {
	var best *ast.FuncLit
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Pos() <= pos && pos < lit.End() {
			best = lit
		}
		return true
	})
	return best
}

// goroutineOwned reports whether the receiver expression denotes state
// the goroutine built for itself inside the given function literal. It
// unwraps selector and index chains to their root and accepts two roots:
// an identifier whose object is declared inside the literal (a local,
// including fields reached through it), and a call expression evaluated
// inside the literal — the factory-closure pattern, where a worker
// invokes a constructor or factory to obtain its private instance.
func goroutineOwned(info *types.Info, recv ast.Expr, lit *ast.FuncLit) bool {
	e := ast.Unparen(recv)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj != nil && lit.Pos() <= obj.Pos() && obj.Pos() < lit.End()
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.CallExpr:
			// A value constructed by a call made inside the literal is this
			// goroutine's own: factory()/NewTracker(...) receivers.
			return lit.Pos() <= x.Pos() && x.End() <= lit.End()
		default:
			return false
		}
	}
}
