package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// AtomicWord enforces the Region access-discipline split (the PR 2
// cross-stripe lost-update class): a word offset that the package accesses
// through the atomic accessors (Load/Store/CAS/Add) must not also be
// accessed through the non-atomic byte accessors (ReadBytes/WriteBytes/
// EqualBytes) — word operations and byte operations on the same word are
// not atomic with respect to each other (pmem.Region's documented
// contract), so mixing them on a contended location silently loses
// updates.
//
// It additionally flags the lost-update shape itself: Store(X, f(Load(X)))
// — a non-atomic read-modify-write of a word that has an atomic Add/CAS
// available (the exact PR 2 count-word bug).
//
// Offsets are compared as normalized source expressions within one
// package: `off+16` and `off + 16` collide, `n+8` and `n+16` do not.
// Aliased offsets through different variables are out of scope — the cheap
// 80% is same-spelling mixes, which is how the real bug was written.
var AtomicWord = &Analyzer{
	Name: "atomicword",
	Doc:  "a Region word must not mix atomic accessors with raw byte access",
	Run:  runAtomicWord,
}

func runAtomicWord(pass *Pass) {
	// The pmem package itself implements both views over the same words;
	// the discipline applies to its clients.
	if pass.Pkg.Types.Name() == "pmem" {
		return
	}
	info := pass.Pkg.Info
	fset := pass.Pkg.Fset

	type use struct {
		pos    token.Pos
		method string
	}
	// Keys are "receiver|offset": the same offset on two different Regions
	// (resize's old-to-new copy loop) is not a mix.
	atomicUses := map[string]use{} // region+offset text -> first atomic access
	rawUses := map[string]use{}    // region+offset text -> first byte access

	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := regionMethod(info, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			recv := exprText(fset, call.Fun.(*ast.SelectorExpr).X)
			offText := exprText(fset, call.Args[0])
			key := recv + "|" + offText
			switch method {
			case "Load", "Store", "CAS", "Add":
				if _, seen := atomicUses[key]; !seen {
					atomicUses[key] = use{call.Pos(), method}
				}
			case "ReadBytes", "WriteBytes", "EqualBytes":
				if _, seen := rawUses[key]; !seen {
					rawUses[key] = use{call.Pos(), method}
				}
			}
			// The RMW shape: Store(X, ...Load(X)...) on the same Region.
			if method == "Store" && len(call.Args) == 2 {
				ast.Inspect(call.Args[1], func(m ast.Node) bool {
					inner, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					im, ok := regionMethod(info, inner)
					if ok && im == "Load" && len(inner.Args) > 0 &&
						exprText(fset, inner.Fun.(*ast.SelectorExpr).X) == recv &&
						exprText(fset, inner.Args[0]) == offText {
						pass.Reportf(call.Pos(),
							"non-atomic read-modify-write of word %s (Store of a value derived from Load of the same offset): concurrent writers lose updates (PR 2 class); use Add or CAS", offText)
					}
					return true
				})
			}
			return true
		})
	}

	for key, raw := range rawUses {
		if at, ok := atomicUses[key]; ok {
			atPos := pass.Pkg.Fset.Position(at.pos)
			offText := key[strings.IndexByte(key, '|')+1:]
			pass.Reportf(raw.pos,
				"word %s is accessed non-atomically via %s here but atomically via %s at line %d: byte and word accessors are not atomic with respect to each other on the same word",
				offText, raw.method, at.method, atPos.Line)
		}
	}
}
