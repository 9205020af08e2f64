package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
)

// RNGStreamAnalyzer enforces the stream-label discipline around
// rng.Stream.Split and rng.SplitSeed. Both derive child seeds purely from
// (seed, labels...), so labels ARE the namespace: a magic literal is
// impossible to audit for collisions, and two distinct named constants with
// the same value silently alias two streams that were meant to be
// independent — correlated draws that no property test will catch. Every label must therefore be a named
// constant (or a runtime value such as a loop index), and the named label
// constants used within one package must be pairwise distinct.
var RNGStreamAnalyzer = &Analyzer{
	Name: "rng-stream",
	Doc: "rng.Stream.Split and rng.SplitSeed labels must be named constants (never numeric literals), " +
		"and label constants within a package must not collide",
	Run: runRNGStream,
}

func runRNGStream(p *Pass) {
	// Named constants used as Split arguments anywhere in this package,
	// with one representative use site each, for the collision check.
	labels := make(map[*types.Const]ast.Node)

	p.eachFile(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			args := splitLabels(p, sel, call.Args)
			for _, arg := range args {
				expr := unwrapConversions(p, arg)
				switch e := expr.(type) {
				case *ast.BasicLit:
					p.Reportf(arg.Pos(), "rng.Stream.Split label %s is a numeric literal; declare a named stream constant (e.g. `fooStream uint64 = iota + N`)", e.Value)
				case *ast.Ident:
					if c, ok := p.Pkg.Info.Uses[e].(*types.Const); ok {
						labels[c] = arg
					}
				case *ast.SelectorExpr:
					if c, ok := p.Pkg.Info.Uses[e.Sel].(*types.Const); ok {
						labels[c] = arg
					}
				}
			}
			return true
		})
	})

	// Collision check: two distinct named constants with equal values, both
	// used as Split labels in this package.
	byValue := make(map[string][]*types.Const)
	for c := range labels {
		if c.Val().Kind() != constant.Int {
			continue
		}
		key := c.Val().ExactString()
		byValue[key] = append(byValue[key], c)
	}
	keys := make([]string, 0, len(byValue))
	for k := range byValue {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		consts := byValue[k]
		if len(consts) < 2 {
			continue
		}
		sort.Slice(consts, func(i, j int) bool { return consts[i].Name() < consts[j].Name() })
		names := ""
		for i, c := range consts {
			if i > 0 {
				names += ", "
			}
			names += c.Name()
		}
		p.Reportf(labels[consts[0]].Pos(), "stream label constants %s all equal %s: aliased labels derive identical child streams", names, k)
	}
}

// splitLabels returns the stream-label arguments of a call through sel:
// all of them for the Split method of rng.Stream, all but the leading seed
// for the package function rng.SplitSeed, none for any other callee. Both
// are keyed on package name (+ receiver type name) so the testdata fixture
// rng package matches too.
func splitLabels(p *Pass, sel *ast.SelectorExpr, args []ast.Expr) []ast.Expr {
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "rng" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() == nil {
		if fn.Name() != "SplitSeed" || len(args) == 0 {
			return nil
		}
		return args[1:]
	}
	if fn.Name() != "Split" {
		return nil
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); !ok || named.Obj().Name() != "Stream" {
		return nil
	}
	return args
}

// unwrapConversions strips parens and type conversions (uint64(x) etc.) so
// the underlying label expression is judged, not its packaging.
func unwrapConversions(p *Pass, e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			if len(v.Args) != 1 {
				return e
			}
			if tv, ok := p.Pkg.Info.Types[v.Fun]; ok && tv.IsType() {
				e = v.Args[0]
				continue
			}
			return e
		default:
			return e
		}
	}
}
