package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SPMDCollective proves collective call sites rank-uniform: a
// collective (Barrier, Split, or any function marked
// //a2alint:collective — the tuned dispatcher's max-allreduce behind
// its bucket and promotion agreements) deadlocks the world if any rank
// branches differently before entering it, so a collective call must
// not sit under a condition that varies by rank. Rank-varying means the
// condition mentions comm.Rank(), a variable assigned from it, or a
// conventionally named rank variable.
var SPMDCollective = &Analyzer{
	Name: "spmdcollective",
	Doc: `collective calls (Barrier, Split, //a2alint:collective-marked functions)
must not be control-dependent on rank-varying expressions: a rank that
skips — or repeats — a collective deadlocks every other rank of the
communicator. Route-compiled schedules and the promotion allreduce both
rely on every rank tracing the same collective sequence.`,
	Run: runSPMDCollective,
}

// builtinCollectives are method names that are collective over the
// communicator by the comm.Comm contract.
var builtinCollectives = map[string]bool{
	"Barrier": true,
	"Split":   true,
}

// rankVarNames are identifier spellings conventionally bound to this
// rank's id; seeing one in a branch condition guarding a collective is
// rank-varying control flow even without tracing where it came from.
var rankVarNames = map[string]bool{
	"rank": true, "myrank": true, "selfrank": true, "worldrank": true,
}

func runSPMDCollective(pass *Pass) error {
	marked := markedCollectives(pass)
	for _, f := range pass.Files {
		var stack []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			if call, ok := n.(*ast.CallExpr); ok {
				if name, ok := collectiveName(pass, call, marked); ok {
					checkCallSite(pass, call, name, stack)
				}
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

// markedCollectives resolves //a2alint:collective directives to the
// function objects they annotate: the directive line must be within
// the doc comment of (or immediately above) a function declaration.
func markedCollectives(pass *Pass) map[*types.Func]bool {
	lines := make(map[string]map[int]bool) // file -> directive line
	for _, d := range pass.Directives {
		if d.Kind != DirCollective {
			continue
		}
		if lines[d.Pos.Filename] == nil {
			lines[d.Pos.Filename] = make(map[int]bool)
		}
		lines[d.Pos.Filename][d.Pos.Line] = true
	}
	marked := make(map[*types.Func]bool)
	if len(lines) == 0 {
		return marked
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			pos := pass.Fset.Position(fd.Pos())
			ok = lines[pos.Filename][pos.Line-1]
			if fd.Doc != nil {
				docPos := pass.Fset.Position(fd.Doc.Pos())
				for l := docPos.Line; l < pos.Line && !ok; l++ {
					ok = lines[pos.Filename][l]
				}
			}
			if ok {
				if fn, isFn := pass.TypesInfo.Defs[fd.Name].(*types.Func); isFn {
					marked[fn] = true
				}
			}
		}
	}
	return marked
}

// collectiveName reports whether call enters a collective, and which.
func collectiveName(pass *Pass, call *ast.CallExpr, marked map[*types.Func]bool) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return "", false
	}
	if marked[fn] {
		return fn.Name(), true
	}
	// Only methods count for the builtin set: a free function named
	// Split is not communicator-collective.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && builtinCollectives[fn.Name()] {
		return fn.Name(), true
	}
	return "", false
}

// checkCallSite walks the enclosing-statement stack from the call out
// to the nearest function boundary, flagging any branch or loop whose
// controlling expression varies by rank.
func checkCallSite(pass *Pass, call *ast.CallExpr, name string, stack []ast.Node) {
	tainted := map[types.Object]bool{}
	// Find the innermost enclosing function to taint rank-derived
	// variables within it.
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			taintRankVars(pass, fn.Body, tainted)
		case *ast.FuncLit:
			taintRankVars(pass, fn.Body, tainted)
		default:
			continue
		}
		break
	}
	child := ast.Node(call)
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return // function boundary: the caller's control flow is its own problem
		case *ast.IfStmt:
			// Only the branch bodies are control-dependent; the init and
			// condition themselves always execute.
			if (n.Body != nil && within(child, n.Body)) || (n.Else != nil && within(child, n.Else)) {
				if expr := rankVarying(pass, n.Cond, tainted); expr != "" {
					pass.Reportf(call.Pos(), "collective %s is control-dependent on rank-varying condition %s: a rank that branches differently deadlocks the world", name, expr)
				}
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				if expr := rankVarying(pass, n.Tag, tainted); expr != "" {
					pass.Reportf(call.Pos(), "collective %s is control-dependent on rank-varying switch %s: a rank that branches differently deadlocks the world", name, expr)
				}
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if expr := rankVarying(pass, e, tainted); expr != "" {
					pass.Reportf(call.Pos(), "collective %s is control-dependent on rank-varying case %s: a rank that branches differently deadlocks the world", name, expr)
				}
			}
		case *ast.ForStmt:
			if n.Cond != nil && within(child, n.Body) {
				if expr := rankVarying(pass, n.Cond, tainted); expr != "" {
					pass.Reportf(call.Pos(), "collective %s runs a rank-varying number of times (loop condition %s): ranks fall out of step on the collective sequence", name, expr)
				}
			}
		}
		child = stack[i]
	}
}

func within(n ast.Node, outer ast.Node) bool {
	return outer.Pos() <= n.Pos() && n.End() <= outer.End()
}

// taintRankVars records variables assigned (anywhere in the function)
// from an expression containing a Rank() call: `r := c.Rank()` makes
// `r` rank-varying for the rest of the function.
func taintRankVars(pass *Pass, body *ast.BlockStmt, tainted map[types.Object]bool) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if hasRankCall(pass, rhs) {
					taintObj(pass, as.Lhs[i], tainted)
				}
			}
		} else if len(as.Rhs) == 1 && hasRankCall(pass, as.Rhs[0]) {
			for _, lhs := range as.Lhs {
				taintObj(pass, lhs, tainted)
			}
		}
		return true
	})
}

func taintObj(pass *Pass, lhs ast.Expr, tainted map[types.Object]bool) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if o := pass.TypesInfo.Defs[id]; o != nil {
		tainted[o] = true
	} else if o := pass.TypesInfo.Uses[id]; o != nil {
		tainted[o] = true
	}
}

func hasRankCall(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isRankCall(call) {
			found = true
		}
		return !found
	})
	return found
}

func isRankCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Rank" && len(call.Args) == 0
}

// rankVarying returns a short rendering of the first rank-varying
// subexpression of e, or "" when e is rank-uniform.
func rankVarying(pass *Pass, e ast.Expr, tainted map[types.Object]bool) string {
	var hit string
	ast.Inspect(e, func(n ast.Node) bool {
		if hit != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isRankCall(n) {
				hit = "Rank()"
				return false
			}
		case *ast.Ident:
			if tainted[pass.TypesInfo.Uses[n]] || rankVarNames[strings.ToLower(n.Name)] {
				hit = n.Name
				return false
			}
		}
		return true
	})
	return hit
}
