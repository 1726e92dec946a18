// Package lint is Astra's static-analysis framework: a shared go/ast +
// go/types package loader, a rule registry, a unified Finding type and a
// per-rule suppression convention. It is the static mirror of the repo's
// dynamic guards — `make race` proves a run raced or it didn't, the
// AllocsPerRun budgets prove a benchmark allocated or it didn't, but both
// only speak about the executions they saw. The rules here prove the same
// invariants over every path at build time, the way internal/verify proves
// schedule safety without running schedules.
//
// The framework builds with the standard library alone (no external
// analysis framework): rules receive a type-checked *Package and return
// findings; the driver (cmd/astra-lint) loads packages, fans them across
// internal/parallel, filters suppressions and renders text or JSON.
//
// # Suppressions
//
// A finding is suppressed by a marker comment on the flagged line or the
// line above, naming the rule and carrying a written reason:
//
//	for k, v := range bindings { // lint:ok map-range order-independent copy
//
// A marker with no reason text is itself reported (rule "suppression"):
// justify-suppress is the contract, silence is not.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the finding in the file:line:col: style editors understand.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// NewFinding builds a Finding from a token position.
func NewFinding(pos token.Position, rule, message string) Finding {
	return Finding{File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: rule, Message: message}
}

// SortFindings orders findings by file, line, column, then rule — the
// canonical order every output mode uses, so parallel and serial runs render
// byte-identically.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// Rule is one static analysis. Implementations are stateless: Check may be
// called from multiple goroutines on different packages.
type Rule interface {
	// Name is the identifier used by -rules selection and lint:ok markers.
	Name() string
	// Doc is a one-line description for the rule catalog.
	Doc() string
	// Applies reports whether the rule covers the package at the given
	// root-relative, slash-separated directory (e.g. "internal/wire").
	// Scoped rules encode *why* they cover a package: the determinism rules
	// own the deterministic core, the lock rules own the concurrent
	// packages, annotation-driven rules apply everywhere.
	Applies(rel string) bool
	// Check analyzes one loaded package and returns its raw findings;
	// suppression filtering happens in Run.
	Check(p *Package) []Finding
}

// registry holds the registered rules, keyed by name.
var registry = map[string]Rule{}

// Register adds a rule to the global registry. Rules register from init
// functions of their packages; the driver imports them for effect.
func Register(r Rule) {
	if _, dup := registry[r.Name()]; dup {
		panic("lint: duplicate rule " + r.Name())
	}
	registry[r.Name()] = r
}

// Rules returns every registered rule sorted by name.
func Rules() []Rule {
	names := make([]string, 0, len(registry))
	for n := range registry { // lint:ok map-range keys sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Rule, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// ByNames resolves a comma-style rule selection against the registry.
func ByNames(names []string) ([]Rule, error) {
	out := make([]Rule, 0, len(names))
	for _, n := range names {
		r, ok := registry[n]
		if !ok {
			all := make([]string, 0, len(registry))
			for k := range registry { // lint:ok map-range keys sorted below
				all = append(all, k)
			}
			sort.Strings(all)
			return nil, fmt.Errorf("lint: unknown rule %q (have %s)", n, strings.Join(all, ", "))
		}
		out = append(out, r)
	}
	return out, nil
}

// InScope is the prefix matcher scoped rules share: rel is in scope when it
// equals a scope entry or sits beneath one.
func InScope(rel string, scope []string) bool {
	for _, s := range scope {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

// ---- suppression markers ----

// Marker is the suppression spelling.
const Marker = "lint:ok"

// suppression is one parsed marker comment.
type suppression struct {
	rule      string
	hasReason bool
	pos       token.Position
}

// suppressions parses every marker comment of a file into a line →
// markers map covering the marker's own line and the one below it (so a
// marker can sit on the flagged line or just above).
func suppressionsOf(fset *token.FileSet, f *ast.File) map[int][]suppression {
	out := map[int][]suppression{}
	for _, cg := range f.Comments {
		for _, cmt := range cg.List {
			i := strings.Index(cmt.Text, Marker)
			if i < 0 {
				continue
			}
			rest := strings.Fields(cmt.Text[i+len(Marker):])
			sup := suppression{hasReason: len(rest) >= 2}
			if len(rest) >= 1 {
				sup.rule = rest[0]
			}
			sup.pos = fset.Position(cmt.Pos())
			line := sup.pos.Line
			out[line] = append(out[line], sup)
			out[line+1] = append(out[line+1], sup)
		}
	}
	return out
}

// knownRule reports whether a name denotes a registered rule.
func knownRule(name string) bool {
	_, ok := registry[name]
	return ok
}

// covers reports whether the marker suppresses findings of the given rule.
// A marker without a written reason covers nothing: the justification is
// the price of the suppression.
func (s suppression) covers(rule string) bool {
	return s.hasReason && s.rule == rule
}

// Run executes every applicable rule on the package, filters suppressed
// findings, reports reason-less markers (rule "suppression"), and returns
// the survivors in canonical order. rel is the package directory relative
// to the module root.
func Run(p *Package, rules []Rule, rel string, force bool) []Finding {
	var raw []Finding
	for _, r := range rules {
		if !force && !r.Applies(rel) {
			continue
		}
		raw = append(raw, r.Check(p)...)
	}

	sups := map[int][]suppression{}
	seen := map[token.Position]bool{}
	var out []Finding
	for _, f := range p.Files {
		for line, list := range suppressionsOf(p.Fset, f) { // lint:ok map-range merged into map keyed by line
			sups[line] = append(sups[line], list...)
		}
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, cmt := range cg.List {
				pos := p.Fset.Position(cmt.Pos())
				if seen[pos] {
					continue
				}
				seen[pos] = true
				text := cmt.Text
				if i := strings.Index(text, Marker); i >= 0 {
					// Only a marker that names a real rule is held to the
					// reason requirement: prose that mentions the spelling
					// ("… lint:ok markers …") is not a suppression — and a
					// misspelled rule name never suppresses anything, so the
					// finding it meant to silence still surfaces.
					rest := strings.Fields(text[i+len(Marker):])
					if len(rest) == 0 || (knownRule(rest[0]) && len(rest) < 2) {
						out = append(out, NewFinding(pos, "suppression", "lint:ok marker must name a rule and carry a written reason: lint:ok <rule> <reason>"))
					}
				}
			}
		}
	}

	for _, fnd := range raw {
		suppressed := false
		for _, sup := range sups[fnd.Line] {
			if sup.covers(fnd.Rule) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, fnd)
		}
	}
	SortFindings(out)
	return out
}
