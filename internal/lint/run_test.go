package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeRule flags every function named Bad — the smallest possible rule,
// enough to drive Run's scope, suppression and ordering machinery without
// dragging a real analysis into the framework tests.
type fakeRule struct {
	name  string
	scope []string
}

func (r fakeRule) Name() string { return r.name }
func (r fakeRule) Doc() string  { return "test rule: flags functions named Bad" }
func (r fakeRule) Applies(rel string) bool {
	return InScope(rel, r.scope)
}
func (r fakeRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Bad" {
				out = append(out, NewFinding(p.Position(fd.Pos()), r.name, "function Bad is flagged"))
			}
		}
	}
	return out
}

func init() {
	Register(fakeRule{name: "fake-bad", scope: []string{"pkg"}})
}

// parseFixture builds a Package straight from source — fake rules read only
// syntax, so no type-check is needed.
func parseFixture(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "pkg/fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "fix/pkg", Dir: "pkg", Fset: fset, Files: []*ast.File{f}}
}

func TestRunScopesAndForce(t *testing.T) {
	p := parseFixture(t, "package pkg\n\nfunc Bad() {}\n")
	rules := []Rule{fakeRule{name: "fake-bad", scope: []string{"pkg"}}}
	if got := Run(p, rules, "other", false); len(got) != 0 {
		t.Errorf("out-of-scope run found %v", got)
	}
	if got := Run(p, rules, "other", true); len(got) != 1 {
		t.Errorf("-force run found %v", got)
	}
	got := Run(p, rules, "pkg", false)
	if len(got) != 1 || got[0].Rule != "fake-bad" || got[0].Line != 3 {
		t.Errorf("in-scope run found %v", got)
	}
}

func TestRunSuppression(t *testing.T) {
	rules := []Rule{fakeRule{name: "fake-bad"}}

	sameLine := parseFixture(t, "package pkg\n\nfunc Bad() {} // lint:ok fake-bad fixture, deliberately quiet\n")
	if got := Run(sameLine, rules, "pkg", true); len(got) != 0 {
		t.Errorf("same-line marker did not suppress: %v", got)
	}

	lineAbove := parseFixture(t, "package pkg\n\n// lint:ok fake-bad fixture, deliberately quiet\nfunc Bad() {}\n")
	if got := Run(lineAbove, rules, "pkg", true); len(got) != 0 {
		t.Errorf("line-above marker did not suppress: %v", got)
	}

	wrongRule := parseFixture(t, "package pkg\n\nfunc Bad() {} // lint:ok otherrule reason text here\n")
	got := Run(wrongRule, rules, "pkg", true)
	if len(got) != 1 || got[0].Rule != "fake-bad" {
		t.Errorf("marker naming another rule suppressed anyway: %v", got)
	}

	noReason := parseFixture(t, "package pkg\n\nfunc Bad() {} // lint:ok fake-bad\n")
	got = Run(noReason, rules, "pkg", true)
	var seen []string
	for _, f := range got {
		seen = append(seen, f.Rule)
	}
	if len(got) != 2 || got[0].Rule != "fake-bad" && got[1].Rule != "fake-bad" ||
		got[0].Rule != "suppression" && got[1].Rule != "suppression" {
		t.Errorf("reason-less marker: want finding + suppression report, got %v", seen)
	}

	bareMarker := parseFixture(t, "package pkg\n\n// lint:ok\nfunc Fine() {}\n")
	got = Run(bareMarker, rules, "pkg", true)
	if len(got) != 1 || got[0].Rule != "suppression" {
		t.Errorf("bare marker: %v", got)
	}

	prose := parseFixture(t, "package pkg\n\n// The lint:ok markers are described in docs/LINT.md.\nfunc Fine() {}\n")
	if got := Run(prose, rules, "pkg", true); len(got) != 0 {
		t.Errorf("prose mention flagged: %v", got)
	}
}

// TestRunRetiredMarkerSuppressesNothing: the pre-v2 "nodeterm:ok" spelling
// is an ordinary comment now — it silences no rule and is not itself held
// to the marker format.
func TestRunRetiredMarkerSuppressesNothing(t *testing.T) {
	for _, src := range []string{
		"package pkg\n\nfunc Bad() {} // nodeterm:ok historical justification\n",
		"package pkg\n\nfunc Bad() {} // nodeterm:ok\n",
	} {
		got := Run(parseFixture(t, src), []Rule{fakeRule{name: "fake-bad"}}, "pkg", true)
		if len(got) != 1 || got[0].Rule != "fake-bad" {
			t.Errorf("%q: want the rule's finding alone, got %v", src, got)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := Rules()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name() >= all[i].Name() {
			t.Errorf("Rules() not sorted: %s before %s", all[i-1].Name(), all[i].Name())
		}
	}
	found := false
	for _, r := range all {
		if r.Name() == "fake-bad" {
			found = true
			if r.Doc() == "" {
				t.Error("empty Doc")
			}
		}
	}
	if !found {
		t.Error("registered rule missing from Rules()")
	}

	picked, err := ByNames([]string{"fake-bad"})
	if err != nil || len(picked) != 1 || picked[0].Name() != "fake-bad" {
		t.Errorf("ByNames: %v, %v", picked, err)
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(fakeRule{name: "fake-bad"})
}

func TestCalleePkgFunc(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "pkg")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package pkg

import "strings"

func helper() string { return "" }

func Use() string {
	s := strings.ToUpper(helper())
	return strings.TrimSpace(s)
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(root, "fix")
	p, err := ld.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var pkgCalls []string
	localSeen := false
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkgPath, name, ok := p.CalleePkgFunc(call); ok {
				pkgCalls = append(pkgCalls, pkgPath+"."+name)
			} else {
				localSeen = true
			}
			return true
		})
	}
	want := "strings.ToUpper"
	if len(pkgCalls) != 2 || !strings.Contains(strings.Join(pkgCalls, " "), want) {
		t.Errorf("pkg calls: %v", pkgCalls)
	}
	if !localSeen {
		t.Error("local call resolved as a package call")
	}
}

func TestLoaderErrors(t *testing.T) {
	root := t.TempDir()
	ld := NewLoader(root, "fix")
	if _, err := ld.Load(filepath.Join(root, "missing")); err == nil {
		t.Error("missing dir: want error")
	}
	empty := filepath.Join(root, "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Load(empty); err == nil {
		t.Error("no Go files: want error")
	}
	if _, err := ld.Import("fix/missing"); err == nil {
		t.Error("module-local import of missing package: want error")
	}
}
