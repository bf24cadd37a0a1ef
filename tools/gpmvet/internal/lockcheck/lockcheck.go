// Package lockcheck enforces the repo's ...Locked naming convention:
// a function whose name ends in "Locked" documents that its caller must
// hold the mutex guarding the receiver's state. The analyzer flags any
// call to a *Locked function from a caller that (a) is not itself
// *Locked, (b) has not lexically acquired a mutex rooted at the same
// receiver before the call (and still holds it — a non-deferred Unlock
// clears the held state), and (c) is not on the allowlist of functions
// that run under a lock taken by their caller (pkg.func names given via
// -lockcheck.allow or a .gpmvet.json; the repo's own list is empty —
// such functions are named ...Locked instead).
//
// The check is lexical, not interprocedural: a closure that captures a
// *Locked call and escapes the critical section will not be caught.
// That is the accepted precision/complexity trade for a zero-dependency
// analyzer; the convention plus -race carries the rest.
package lockcheck

import (
	"go/ast"
	"strings"

	"gpmvet/internal/analysis"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "calls to *Locked functions must come from holders of the corresponding mutex",
	Run:  run,
}

func init() {
	Analyzer.Flags.String("allow", "",
		"comma-separated pkg.func names allowed to call *Locked functions without a visible lock (they run under a lock taken by their caller)")
}

func allowed(pass *analysis.Pass, fn string) bool {
	raw := pass.Analyzer.Flags.Lookup("allow").Value.String()
	if raw == "" {
		return false
	}
	for _, entry := range strings.Split(raw, ",") {
		entry = strings.TrimSpace(entry)
		if entry == fn || entry == pass.Pkg.Name+"."+fn {
			return true
		}
	}
	return false
}

// lockEvent is one mutex acquisition or release, in source order.
type lockEvent struct {
	pos     int    // byte offset, for lexical ordering
	path    string // rendered selector path of the mutex, e.g. "r.writeMu"
	acquire bool
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") || allowed(pass, fd.Name.Name) {
				continue // the caller's own contract covers its callees
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var events []lockEvent
	type lockedCall struct {
		call *ast.CallExpr
		name string
		base string // receiver base identifier ("" for a direct call)
	}
	var calls []lockedCall

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		if n == nil {
			return
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			// A deferred Unlock releases at return, after every call in
			// the body — it neither acquires nor clears held state here.
			// A deferred *Locked call is still a *Locked call, judged at
			// the defer site.
			if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok && strings.HasSuffix(sel.Sel.Name, "Locked") {
				calls = append(calls, lockedCall{call: d.Call, name: sel.Sel.Name, base: baseIdent(sel.X)})
			} else if id, ok := d.Call.Fun.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Locked") {
				calls = append(calls, lockedCall{call: d.Call, name: id.Name, base: ""})
			}
			walk(d.Call.Fun, true)
			for _, a := range d.Call.Args {
				walk(a, true)
			}
			return
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if p := path(sel.X); p != "" && !inDefer {
						events = append(events, lockEvent{pos: int(call.Pos()), path: p, acquire: true})
					}
				case "Unlock", "RUnlock":
					if p := path(sel.X); p != "" && !inDefer {
						events = append(events, lockEvent{pos: int(call.Pos()), path: p, acquire: false})
					}
				}
				if strings.HasSuffix(sel.Sel.Name, "Locked") {
					calls = append(calls, lockedCall{call: call, name: sel.Sel.Name, base: baseIdent(sel.X)})
				}
			} else if id, ok := call.Fun.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Locked") {
				calls = append(calls, lockedCall{call: call, name: id.Name, base: ""})
			}
		}
		for _, c := range children(n) {
			walk(c, inDefer)
		}
	}
	walk(fd.Body, false)

	for _, lc := range calls {
		if allowed(pass, lc.name) {
			continue
		}
		if holdsAt(events, int(lc.call.Pos()), lc.base) {
			continue
		}
		who := lc.base
		if who == "" {
			who = "the receiver"
		}
		pass.Reportf(lc.call.Pos(),
			"call to %s without holding %s's mutex: Lock/RLock before the call, give the caller a ...Locked suffix, or allowlist it (lockcheck.allow)",
			lc.name, who)
	}
}

// holdsAt reports whether, lexically before pos, some mutex rooted at
// base was acquired and not since released. The naming convention does
// not say which mutex guards which method, so any mutex under the same
// receiver qualifies; base "" (a direct call) accepts any held mutex.
func holdsAt(events []lockEvent, pos int, base string) bool {
	held := map[string]bool{}
	for _, ev := range events {
		if ev.pos >= pos {
			break
		}
		held[ev.path] = ev.acquire
	}
	for p, h := range held {
		if !h {
			continue
		}
		if base == "" || baseOf(p) == base {
			return true
		}
	}
	return false
}

// path renders a selector chain like r.writeMu ("" when it is not a
// plain ident/selector chain).
func path(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if p := path(e.X); p != "" {
			return p + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return path(e.X)
	}
	return ""
}

func baseIdent(e ast.Expr) string {
	p := path(e)
	if p == "" {
		return ""
	}
	return baseOf(p)
}

func baseOf(p string) string {
	if i := strings.Index(p, "."); i >= 0 {
		return p[:i]
	}
	return p
}

// children returns a node's direct AST children (ast.Inspect without
// the callback plumbing, so walk can thread the defer flag).
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
