// Package ctxflow enforces context discipline on the serving path. In
// the guarded packages (-ctxflow.packages: the registry, HTTP layer,
// SDK and follower by default) it requires:
//
//   - exported functions and methods that take a context.Context take
//     it as the first parameter (the Go API convention the whole repo
//     follows, and what makes ctx threading mechanical to audit);
//   - no context.Background()/context.TODO() calls: these packages sit
//     on request paths, where minting a fresh root context detaches the
//     work from its caller's cancellation and trace. The deliberate
//     exception — the non-ctx wrapper Subscribe — carries
//     //gpmvet:ignore with the reason, so every detachment is visible
//     and counted.
//
// The analyzer is syntactic: it cannot prove a received ctx reaches
// every blocking callee. It closes the common leak (a fresh Background
// where a ctx was in scope) and leaves deep propagation to review and
// the cancellation tests.
package ctxflow

import (
	"go/ast"
	"strconv"
	"strings"

	"gpmvet/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "request-path packages: ctx-first exported APIs, no context.Background/TODO",
	Run:  run,
}

func init() {
	Analyzer.Flags.String("packages", "gpm/internal/contq,gpm/internal/follow,gpm/internal/serve,gpm/client",
		"comma-separated import paths (exact or path-suffix match) where context discipline is enforced")
}

func run(pass *analysis.Pass) error {
	if !inScope(pass) {
		return nil
	}
	for _, f := range pass.Files {
		ctxName := importName(f, "context", "context")
		if ctxName == "" {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Name.IsExported() {
				checkCtxFirst(pass, fd, ctxName)
			}
			if fd.Body != nil {
				checkNoFreshRoots(pass, fd, ctxName)
			}
		}
	}
	return nil
}

// checkCtxFirst flags exported signatures whose context.Context
// parameter is not the first.
func checkCtxFirst(pass *analysis.Pass, fd *ast.FuncDecl, ctxName string) {
	params := fd.Type.Params
	if params == nil {
		return
	}
	pos := 0 // parameter index, counting each name in grouped params
	for _, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtxType(field.Type, ctxName) && pos != 0 {
			pass.Reportf(field.Pos(),
				"%s takes a %s.Context that is not the first parameter: blocking APIs on the request path are ctx-first",
				fd.Name.Name, ctxName)
		}
		pos += n
	}
}

// checkNoFreshRoots flags context.Background()/context.TODO() calls.
func checkNoFreshRoots(pass *analysis.Pass, fd *ast.FuncDecl, ctxName string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == ctxName {
			if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
				pass.Reportf(call.Pos(),
					"%s.%s() mints a fresh root context on a request path: propagate the caller's ctx (or gpmvet:ignore with the reason the work is deliberately detached)",
					ctxName, sel.Sel.Name)
			}
		}
		return true
	})
}

func isCtxType(e ast.Expr, ctxName string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == ctxName && sel.Sel.Name == "Context"
}

func inScope(pass *analysis.Pass) bool {
	for _, p := range strings.Split(pass.Analyzer.Flags.Lookup("packages").Value.String(), ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if pass.Pkg.ImportPath == p || strings.HasSuffix(pass.Pkg.ImportPath, "/"+p) {
			return true
		}
	}
	return false
}

func importName(f *ast.File, path, def string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return def
	}
	return ""
}
