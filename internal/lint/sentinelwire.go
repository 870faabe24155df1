package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SentinelWire keeps errors.Is working across the process boundary.
// Two checks:
//
//  1. Exhaustiveness: in the package that defines the wire error
//     tables (it declares CodeFor), every exported Err* sentinel of
//     the error-defining packages it imports (path segments core,
//     engine, dynamic, registry) — plus its own — must appear in
//     those tables. A sentinel missing from CodeFor/sentinelFor
//     decays to code "internal" on the wire and errors.Is breaks for
//     remote callers; a sentinel added without a table row is the
//     drift this check exists for.
//
//  2. %w wrapping: wire-crossing tiers (path segments server,
//     router) must wrap underlying errors with %w, never %v/%s —
//     fmt.Errorf that swallows an error's identity strips the
//     sentinel before CodeFor can classify it.
var SentinelWire = &Analyzer{
	Name: "sentinelwire",
	Doc: "sentinelwire checks that every canonical Err* sentinel reachable from " +
		"the wire tables is mapped by CodeFor/sentinelFor, and that " +
		"server/router code wraps errors with %w so errors.Is survives the wire.",
	Run: runSentinelWire,
}

// sentinelSourceSegments are the import-path segments of packages
// whose exported Err* variables are wire-relevant sentinels.
var sentinelSourceSegments = []string{"core", "engine", "dynamic", "registry"}

// wireTierSegments are the import-path segments of packages whose
// errors cross the process boundary.
var wireTierSegments = []string{"server", "router"}

func runSentinelWire(pass *Pass) error {
	if decl := findFuncDecl(pass, "CodeFor"); decl != nil {
		checkSentinelExhaustiveness(pass, decl)
	}
	for _, seg := range wireTierSegments {
		if pathHasSegment(pass.Pkg.Path(), seg) {
			checkErrorfWrapping(pass)
			break
		}
	}
	return nil
}

// findFuncDecl returns the package-level function declaration named
// name, or nil.
func findFuncDecl(pass *Pass, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

// checkSentinelExhaustiveness collects the candidate sentinels and
// verifies each is mentioned somewhere in this package's non-test
// code (the code tables live here; a sentinel never named cannot be
// mapped). Reported at the CodeFor declaration so the fix site is
// obvious.
func checkSentinelExhaustiveness(pass *Pass, codeFor *ast.FuncDecl) {
	type sentinel struct {
		obj  types.Object
		qual string // pkgname.ErrX, for the report
	}
	var candidates []sentinel

	collect := func(pkg *types.Package, qualifier string) {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			v, ok := obj.(*types.Var)
			if !ok || !v.Exported() || !strings.HasPrefix(name, "Err") {
				continue
			}
			if !isErrorType(v.Type()) {
				continue
			}
			candidates = append(candidates, sentinel{obj: v, qual: qualifier + name})
		}
	}

	for _, imp := range pass.Pkg.Imports() {
		for _, seg := range sentinelSourceSegments {
			if pathHasSegment(imp.Path(), seg) {
				collect(imp, imp.Name()+".")
				break
			}
		}
	}
	collect(pass.Pkg, "")

	// A sentinel is "mapped" when the wire-table code mentions it:
	// the bodies of CodeFor/StatusFor/sentinelFor, or any package-
	// level var initializer (codeSentinels is such a table). A use
	// elsewhere — an errors.Is in a handler, say — does not count:
	// a sentinel only tested in a handler still decays on the wire.
	// The analyzer checks reach; the round-trip test checks semantics.
	used := make(map[types.Object]bool)
	markUses := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					used[obj] = true
				}
			}
			return true
		})
	}
	tableFuncs := map[string]bool{"CodeFor": true, "StatusFor": true, "sentinelFor": true}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && tableFuncs[d.Name.Name] && d.Body != nil {
					markUses(d.Body)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					markUses(d)
				}
			}
		}
	}

	sort.Slice(candidates, func(i, j int) bool { return candidates[i].qual < candidates[j].qual })
	for _, s := range candidates {
		if used[s.obj] {
			continue
		}
		// Defined-here-but-unused would already be a compile error;
		// this fires for imported sentinels only.
		pass.Reportf(codeFor.Pos(), "sentinel %s has no entry in this package's wire tables (CodeFor/sentinelFor/StatusFor); remote errors.Is will not see it", s.qual)
	}
}

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface())
}

var errType *types.Interface

func errorIface() *types.Interface {
	if errType == nil {
		errType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	}
	return errType
}

// checkErrorfWrapping flags fmt.Errorf calls that pass an error
// argument without a %w verb in a constant format string.
func checkErrorfWrapping(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Errorf" {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "fmt" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			format, ok := constantString(pass, call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				tv, ok := pass.TypesInfo.Types[arg]
				if !ok || tv.Type == nil {
					continue
				}
				if types.Implements(tv.Type, errorIface()) || types.Implements(types.NewPointer(tv.Type), errorIface()) {
					pass.Reportf(call.Pos(), "fmt.Errorf wraps an error without %%w; the sentinel is stripped before CodeFor can classify it (errors.Is breaks across the wire)")
					return true
				}
			}
			return true
		})
	}
}

// constantString evaluates e as a compile-time string constant.
func constantString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
