package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alltoallx/internal/lint"
	"alltoallx/internal/lint/linttest"
)

func TestSimdet(t *testing.T) {
	linttest.Run(t, "testdata/simdet", "fix/internal/sim", lint.Simdet)
}

// TestSimdetOutOfScope proves the determinism rules stay confined to
// the simulation/schedule/topology packages: the same violations in a
// bench-style package (which measures real wall time on purpose) are
// not findings.
func TestSimdetOutOfScope(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/simdet", "fix/internal/bench")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Check(pkg, []*lint.Analyzer{lint.Simdet})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("simdet fired outside its scope: %v", diags)
	}
}

func TestSPMDCollective(t *testing.T) {
	linttest.Run(t, "testdata/spmdcollective", "fix/internal/core", lint.SPMDCollective)
}

func TestErrAttr(t *testing.T) {
	linttest.Run(t, "testdata/errattr", "fix/internal/sched", lint.ErrAttr)
}

// TestErrAttrOutOfScope: the same unwrapped errors in a package off
// the schedule/registry/dispatch paths are not findings.
func TestErrAttrOutOfScope(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/errattr", "fix/internal/model")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Check(pkg, []*lint.Analyzer{lint.ErrAttr})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("errattr fired outside its scope: %v", diags)
	}
}

func TestMutexGuard(t *testing.T) {
	linttest.Run(t, "testdata/mutexguard", "fix/internal/core", lint.MutexGuard)
}

func TestTagDiscipline(t *testing.T) {
	linttest.Run(t, "testdata/tagdiscipline", "fix/internal/sim", lint.TagDiscipline)
}

// TestSuppressionDirective covers the ignore grammar end to end: a
// justified ignore silences exactly its line, and malformed or
// reason-less directives are findings in their own right.
func TestSuppressionDirective(t *testing.T) {
	linttest.Run(t, "testdata/directive", "fix/internal/sim", lint.Simdet)
}

func TestKnownAnalyzers(t *testing.T) {
	known := lint.KnownAnalyzers()
	for _, a := range lint.All {
		if !known[a.Name] {
			t.Errorf("analyzer %s missing from KnownAnalyzers", a.Name)
		}
		if a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be lower-case with no spaces (it appears in directives)", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s needs Doc and Run", a.Name)
		}
	}
	if known["directive"] {
		t.Error("the directive pseudo-analyzer must not be suppressible")
	}
}

func TestModuleRoot(t *testing.T) {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("ModuleRoot returned %s without a go.mod: %v", root, err)
	}
	if _, err := lint.ModuleRoot(t.TempDir()); err == nil {
		t.Error("ModuleRoot outside any module should fail")
	}
}

func TestLoadPackagesResolvesPatterns(t *testing.T) {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadPackages(root, []string{"./internal/singleflight"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || !strings.HasSuffix(pkgs[0].Path, "internal/singleflight") {
		t.Fatalf("unexpected packages: %+v", pkgs)
	}
	if pkgs[0].Types == nil || len(pkgs[0].Files) == 0 {
		t.Fatal("loaded package is missing type information or files")
	}
}

// TestRepoIsClean is the regression guard the whole suite exists for:
// the production packages must stay free of findings (or carry a
// justified ignore). A finding here is a real invariant violation —
// fix it or justify it at the site, never here.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadPackages(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg, lint.All)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
