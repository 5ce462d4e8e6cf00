package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// MutexGuard enforces the `// guarded by mu` field directive: every
// selector access to an annotated struct field must happen in a
// function that acquires the named mutex (x.mu.Lock(), x.mu.RLock(),
// or — for an embedded sync.Mutex/RWMutex — x.Lock()/x.RLock()). This
// is exactly the class of core's opState check-then-set race: the
// unsynchronized read of a guarded slot looked harmless until two
// Starts interleaved. Helpers intentionally called with the lock held
// document that with //a2alint:ignore mutexguard <reason>.
//
// The check is per-function and syntactic about acquisition order —
// it proves "this function touches guarded state and never takes the
// lock", not lock-set dominance. That is the bug class that slips
// through review; -race only catches it when a test happens to
// interleave.
var MutexGuard = &Analyzer{
	Name: "mutexguard",
	Doc: `fields annotated "// guarded by <mutex>" must only be accessed in
functions that lock that mutex. Composite-literal construction is
exempt (the value is not shared yet), as are functions named *Locked
(the suffix is the documented promise that the caller holds the lock);
other functions called with the lock held carry an
//a2alint:ignore mutexguard justification.`,
	Run: runMutexGuard,
}

var guardedByRe = regexp.MustCompile(`(?i)\bguarded by (\w+)\b`)

// guardSpec records one annotated field.
type guardSpec struct {
	guard    string // mutex field name, or "Mutex"/"RWMutex" for embedded
	owner    string // struct type name, for messages
	embedded bool   // guard is an embedded sync.Mutex/RWMutex
}

func runMutexGuard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkGuardedAccesses(pass, d.Name.Name, d.Body, guards)
			case *ast.GenDecl:
				// Package-level var initializers (rare, e.g. a registry
				// literal) construct, not share; skip.
			}
		}
	}
	return nil
}

// collectGuards finds every struct field whose doc or line comment
// says "guarded by <name>" and resolves it to its types.Var, along
// with the guard's spelling. Both named struct types and anonymous
// structs (package-level singleton vars like a registry or hook slot)
// carry annotations.
func collectGuards(pass *Pass) map[*types.Var]guardSpec {
	guards := make(map[*types.Var]guardSpec)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch spec := n.(type) {
			case *ast.TypeSpec:
				if st, ok := spec.Type.(*ast.StructType); ok {
					guardsFromStruct(pass, spec.Name.Name, st, guards)
				}
			case *ast.ValueSpec:
				owner := "anonymous struct"
				if len(spec.Names) == 1 {
					owner = spec.Names[0].Name
				}
				if st, ok := spec.Type.(*ast.StructType); ok {
					guardsFromStruct(pass, owner, st, guards)
				}
				for _, v := range spec.Values {
					if cl, ok := v.(*ast.CompositeLit); ok {
						if st, ok := cl.Type.(*ast.StructType); ok {
							guardsFromStruct(pass, owner, st, guards)
						}
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardsFromStruct(pass *Pass, owner string, st *ast.StructType, guards map[*types.Var]guardSpec) {
	fieldNames := make(map[string]bool)
	embedsMutex := false
	for _, fld := range st.Fields.List {
		for _, name := range fld.Names {
			fieldNames[name.Name] = true
		}
		if len(fld.Names) == 0 {
			if sel, ok := fld.Type.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
				embedsMutex = true
				fieldNames[sel.Sel.Name] = true
			}
		}
	}
	for _, fld := range st.Fields.List {
		guard := guardName(fld)
		if guard == "" {
			continue
		}
		if !fieldNames[guard] {
			pass.Reportf(fld.Pos(), "guard %q is not a field of %s; the directive names the mutex that protects this field", guard, owner)
			continue
		}
		for _, name := range fld.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				guards[v] = guardSpec{
					guard:    guard,
					owner:    owner,
					embedded: embedsMutex && (guard == "Mutex" || guard == "RWMutex"),
				}
			}
		}
	}
}

func guardName(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkGuardedAccesses flags selector accesses to guarded fields in
// functions that never acquire the guard.
func checkGuardedAccesses(pass *Pass, funcName string, body *ast.BlockStmt, guards map[*types.Var]guardSpec) {
	if body == nil {
		return
	}
	// The *Locked suffix is the repo's documented promise that every
	// caller already holds the receiver's lock (e.g. evictLocked).
	if strings.HasSuffix(funcName, "Locked") {
		return
	}
	acquired := acquiredGuards(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		spec, guarded := guards[v]
		if !guarded || acquired[spec.guard] {
			return true
		}
		pass.Reportf(sel.Pos(), "%s.%s is guarded by %s, but %s never locks it; hold the lock or justify with an ignore directive",
			spec.owner, v.Name(), spec.guard, funcName)
		return true
	})
}

// acquiredGuards collects the mutex names this function locks: the
// final selector before .Lock()/.RLock() (s.mu.Lock -> "mu"), or the
// embedded forms x.Lock()/x.RLock() (recorded as "Mutex"/"RWMutex").
// Where the lock is taken — before or after the access — is not
// checked; "never locked at all" is the reviewable signal.
func acquiredGuards(pass *Pass, body *ast.BlockStmt) map[string]bool {
	acquired := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
		default:
			return true
		}
		switch recv := sel.X.(type) {
		case *ast.SelectorExpr:
			acquired[recv.Sel.Name] = true
		case *ast.Ident:
			// x.Lock() through an embedded mutex, or a local `mu := &s.mu`.
			acquired[recv.Name] = true
			acquired["Mutex"] = true
			acquired["RWMutex"] = true
		}
		return true
	})
	return acquired
}
