package lint

import (
	"go/ast"
	"go/token"
)

// CtxLoop enforces the PR 3 cancellation contract: a function that
// was handed a context and loops over draw calls must consult that
// context inside the loop — by checking ctx.Err()/ctx.Done() per
// batch, or by passing the ctx into the draw itself (every Source
// implementation checks it per batch). A ctx-less draw loop turns a
// canceled request into unbounded sampling work: the exact defect
// class the Source migration fixed in srjbench and srjsample.
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc: "ctxloop flags for-loops that issue sampling calls (Draw, DrawFunc, " +
		"Sample, SampleInto, SampleFunc, Next) inside a function that has a " +
		"context.Context parameter without consulting any context in the loop " +
		"body. Cancellation must take effect between batches.",
	Run: runCtxLoop,
}

// drawCallNames are the method/function names that mean "sampling
// work happens here". The Source API names plus the per-sample
// Sampler.Next; matching is by name so the check also covers mocks and
// future implementations without a types dependency on the repo.
var drawCallNames = map[string]bool{
	"Draw":       true,
	"DrawFunc":   true,
	"Sample":     true,
	"SampleInto": true,
	"SampleFunc": true,
	"Next":       true,
}

func runCtxLoop(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var typ *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				typ, body = fn.Type, fn.Body
			case *ast.FuncLit:
				typ, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !funcHasCtxParam(pass, typ) {
				return true
			}
			checkCtxLoops(pass, body)
			return true
		})
	}
	return nil
}

// funcHasCtxParam reports whether the function type declares a
// context.Context parameter.
func funcHasCtxParam(pass *Pass, typ *ast.FuncType) bool {
	if typ.Params == nil {
		return false
	}
	for _, field := range typ.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkCtxLoops walks one function body (skipping nested function
// literals, which own their context discipline) and reports draw
// loops that never consult a context.
func checkCtxLoops(pass *Pass, body *ast.BlockStmt) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested function: separate contract
		case *ast.ForStmt:
			checkOneLoop(pass, n.Body, n.Pos())
		case *ast.RangeStmt:
			checkOneLoop(pass, n.Body, n.Pos())
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkOneLoop reports the loop at pos when its body issues a draw
// call (outside nested function literals) but no expression in the
// body — nested literals included, a deferred cancel counts —
// denotes a context value.
func checkOneLoop(pass *Pass, body *ast.BlockStmt, pos token.Pos) {
	draw := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name := calleeName(call); drawCallNames[name] && draw == "" {
				draw = name
			}
		}
		return true
	})
	if draw == "" {
		return
	}
	if usesContext(pass.TypesInfo, body) {
		return
	}
	pass.Reportf(pos, "loop calls %s but never consults a context; check ctx.Err() per batch or pass ctx into the draw", draw)
}
