package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// errattrScope is the attributable-error surface: the schedule
// compiler, the registry, the dispatch layer that stitches them into
// operations, and the command that inspects them. At SuperMUC scale an
// error that cannot be pinned to a (generator, world, rank) is an
// operational incident, not a log line; these packages' errors cross
// package boundaries into operator-facing paths, so they must keep the
// cause chain (%w) and carry identifying context.
var errattrScope = []string{
	"internal/sched", "internal/schedreg", "internal/core", "cmd/a2asched",
}

// ErrAttr proves errors on the schedule/registry/dispatch paths
// attributable: a wrapped cause survives errors.Is/As across package
// boundaries, and a constant-only message can never say which world
// failed.
var ErrAttr = &Analyzer{
	Name: "errattr",
	Doc: `errors crossing package boundaries on schedule/registry/dispatch paths
must stay attributable: fmt.Errorf must wrap a cause with %w (never
flatten it through %v/%s — errors.Is and the negative caches depend on
the chain), a bare "%w" wrap adds no context and should name the
generator/world/rank, and a constant format with no arguments should be
an errors.New sentinel (testable with errors.Is) or carry context.`,
	Run: runErrAttr,
}

func runErrAttr(pass *Pass) error {
	if !pass.InScope(errattrScope...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok && isPkgFunc(pass, call, "fmt", "Errorf") {
				checkErrorf(pass, call)
			}
			return true
		})
	}
	return nil
}

func isPkgFunc(pass *Pass, call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkg && fn.Name() == name
}

func checkErrorf(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	format, ok := stringConstant(pass, call.Args[0])
	if !ok {
		return // dynamic format: out of static reach
	}
	verbs := parseVerbs(format)
	args := call.Args[1:]

	if len(args) == 0 && len(verbs) == 0 {
		pass.Reportf(call.Pos(), "constant error message %q cannot identify a (generator, world, rank); use an errors.New sentinel or add context", truncateMsg(format))
		return
	}
	if strings.TrimSpace(format) == "%w" {
		pass.Reportf(call.Pos(), "bare %%w wrap adds no context; name the generator/world/rank the cause belongs to")
	}
	// Positional verb-to-argument matching. Explicit argument indexes
	// (%[1]v) and * widths are rare enough here to skip rather than
	// mis-attribute.
	if strings.Contains(format, "%[") || strings.Contains(format, "*") {
		return
	}
	for i, v := range verbs {
		if i >= len(args) {
			break
		}
		if v != 'w' && isErrorType(pass, args[i]) {
			pass.Reportf(call.Pos(), "error cause formatted with %%%c discards the chain; wrap it with %%w so errors.Is keeps working across package boundaries", v)
		}
	}
	return
}

func stringConstant(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// parseVerbs extracts the verb letters of a format string in argument
// order, skipping %% escapes and flag/width/precision prefixes.
func parseVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			break
		}
		if format[i] != '%' { // %% consumes no argument
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}

func isErrorType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(tv.Type, errIface) || types.Implements(types.NewPointer(tv.Type), errIface)
}

func truncateMsg(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}
