// Package nodeterm holds Astra's determinism rule family. The whole
// reproduction rests on bit-identical replay — the simulated device, the
// enumerator and the explorer must produce the same schedule and the same
// measurements on every run — so the runtime packages must not consult the
// wall clock, the process environment, the global (unseeded) math/rand
// source, or Go's randomized map iteration order where the order can leak
// into results.
//
// Five rules, checked with go/types over the package source (the shared
// internal/lint loader; no external analysis framework, so the linter
// builds with the stdlib alone):
//
//   - time-now: any call to time.Now. Simulated time lives on the session
//     clock; wall-clock reads make traces and reports non-reproducible.
//   - wall-clock: time.Since / time.Until — the same wall-clock read with
//     the subtraction hidden inside, and the form that actually sneaks
//     into timing code ("just measure this once...").
//   - env-read: os.Getenv / os.LookupEnv / os.Environ. Behaviour keyed on
//     ambient environment differs machine to machine; configuration enters
//     through explicit options, never through the environment.
//   - global-rand: package-level math/rand calls (rand.Intn, rand.Float64,
//     …), which draw from the global, seed-racy source. Deterministic code
//     threads an explicit *rand.Rand from rand.New(rand.NewSource(seed)).
//   - map-range: a range statement over a map value. Go randomizes the
//     order on purpose; ranging is only safe when the body is provably
//     order-independent, which the linter cannot see — sort the keys, or
//     suppress with a justification.
//
// A finding is suppressed by a marker on the flagged line or the line
// above, naming the rule and carrying a reason:
//
//	for k, v := range bindings { // lint:ok map-range order-independent copy
package nodeterm

import (
	"fmt"
	"go/ast"
	"go/types"

	"astra/internal/lint"
)

// Scope is the deterministic core: the packages whose output feeds
// schedules, measurements or reports, held to bit-identical replay. The
// lint framework itself is included — order-stable linter output is a
// determinism contract too.
var Scope = []string{
	"internal/gpusim",
	"internal/wire",
	"internal/distsim",
	"internal/enumerate",
	"internal/parallel",
	"internal/analyze",
	"internal/whatif",
	"internal/serve",
	"internal/costmodel",
	"internal/lint",
}

func init() {
	lint.Register(timeNowRule{})
	lint.Register(wallClockRule{})
	lint.Register(envReadRule{})
	lint.Register(globalRandRule{})
	lint.Register(mapRangeRule{})
}

// pkgCallRule is the shared shape of the call-matching rules: flag calls
// pkg.Fn for a fixed (package, function) → message table.
func checkCalls(p *lint.Package, rule string, match func(pkgPath, fn string) (string, bool)) []lint.Finding {
	var out []lint.Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, fn, ok := p.CalleePkgFunc(call)
			if !ok {
				return true
			}
			if msg, hit := match(pkgPath, fn); hit {
				out = append(out, lint.NewFinding(p.Position(call.Pos()), rule, msg))
			}
			return true
		})
	}
	return out
}

type timeNowRule struct{}

func (timeNowRule) Name() string { return "time-now" }
func (timeNowRule) Doc() string {
	return "wall-clock read via time.Now in the deterministic core; use the session's simulated clock"
}
func (timeNowRule) Applies(rel string) bool { return lint.InScope(rel, Scope) }
func (timeNowRule) Check(p *lint.Package) []lint.Finding {
	return checkCalls(p, "time-now", func(pkgPath, fn string) (string, bool) {
		if pkgPath == "time" && fn == "Now" {
			return "time.Now breaks replay; use the session's simulated clock", true
		}
		return "", false
	})
}

type wallClockRule struct{}

func (wallClockRule) Name() string { return "wall-clock" }
func (wallClockRule) Doc() string {
	return "hidden wall-clock read via time.Since/time.Until in the deterministic core"
}
func (wallClockRule) Applies(rel string) bool { return lint.InScope(rel, Scope) }
func (wallClockRule) Check(p *lint.Package) []lint.Finding {
	return checkCalls(p, "wall-clock", func(pkgPath, fn string) (string, bool) {
		if pkgPath == "time" && (fn == "Since" || fn == "Until") {
			return fmt.Sprintf("time.%s reads the wall clock; derive durations from the simulated clock", fn), true
		}
		return "", false
	})
}

type envReadRule struct{}

func (envReadRule) Name() string { return "env-read" }
func (envReadRule) Doc() string {
	return "ambient environment read via os.Getenv/os.LookupEnv/os.Environ in the deterministic core"
}
func (envReadRule) Applies(rel string) bool { return lint.InScope(rel, Scope) }
func (envReadRule) Check(p *lint.Package) []lint.Finding {
	return checkCalls(p, "env-read", func(pkgPath, fn string) (string, bool) {
		if pkgPath == "os" && (fn == "Getenv" || fn == "LookupEnv" || fn == "Environ") {
			return fmt.Sprintf("os.%s makes behaviour depend on the ambient environment; thread configuration through explicit options", fn), true
		}
		return "", false
	})
}

type globalRandRule struct{}

func (globalRandRule) Name() string { return "global-rand" }
func (globalRandRule) Doc() string {
	return "draw from the global math/rand source; thread a seeded *rand.Rand instead"
}
func (globalRandRule) Applies(rel string) bool { return lint.InScope(rel, Scope) }
func (globalRandRule) Check(p *lint.Package) []lint.Finding {
	return checkCalls(p, "global-rand", func(pkgPath, fn string) (string, bool) {
		if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
			return "", false
		}
		// Constructors of explicit sources are the fix, not the bug.
		switch fn {
		case "New", "NewSource", "NewPCG", "NewZipf":
			return "", false
		}
		return fmt.Sprintf("rand.%s uses the global source; thread a *rand.Rand from rand.New(rand.NewSource(seed))", fn), true
	})
}

type mapRangeRule struct{}

func (mapRangeRule) Name() string { return "map-range" }
func (mapRangeRule) Doc() string {
	return "range over a map iterates in randomized order; sort the keys or justify the suppression"
}
func (mapRangeRule) Applies(rel string) bool { return lint.InScope(rel, Scope) }
func (mapRangeRule) Check(p *lint.Package) []lint.Finding {
	var out []lint.Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rng.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			out = append(out, lint.NewFinding(p.Position(rng.Pos()), "map-range",
				fmt.Sprintf("range over map %s iterates in randomized order; sort the keys or justify with lint:ok map-range", types.TypeString(tv.Type, nil))))
			return true
		})
	}
	return out
}
