package costmodel

import (
	"math"
	"sort"

	"astra/internal/adapt"
	"astra/internal/spec"
)

// Mode selects how much of the model's advice a Planner applies.
type Mode int

const (
	// ModeTrain only feeds the session's observations into the model.
	// Plans are empty, so exploration order and candidate set are exactly
	// what they would be with no prior — the donor/teacher configuration,
	// and the always-safe default for sessions that must stay comparable
	// to prior-free baselines (the serve layer's default).
	ModeTrain Mode = iota
	// ModeRank reorders candidate visits by predicted cost (likely-best
	// first) and prunes nothing: every candidate is still measured, so the
	// frozen result is provably unchanged — only the order (and therefore
	// the time spent running bad configurations while exploring) moves.
	ModeRank
	// ModeFull ranks and additionally prunes candidates predicted to be
	// dominated beyond the margin, subject to the MinSurvivors valve —
	// the trials-to-freeze saver.
	ModeFull
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeTrain:
		return "train"
	case ModeRank:
		return "rank"
	case ModeFull:
		return "full"
	}
	return "mode?"
}

// PlannerConfig tunes a Planner. The zero value means ModeTrain with
// default thresholds.
type PlannerConfig struct {
	Mode Mode
	// MarginFrac is the domination margin: a candidate is pruned only when
	// its predicted cost exceeds the predicted best by more than this
	// fraction (log-space ratio). The margin is the safety knob — it must
	// exceed the model's relative error for the true best to survive
	// pruning. Default 0.35 (predicted ≥35% slower).
	MarginFrac float64
	// MinSurvivors is the K-survivor valve: the top-K candidates of the
	// predicted order are never pruned, whatever the margin says, so a
	// maximally wrong model still leaves a measured choice between
	// alternatives. Default 2.
	MinSurvivors int
	// MaxLevel bounds which backoff levels are trusted for pruning:
	// candidates whose prediction (or whose best-rival's prediction) came
	// from a level above it are ranked but never pruned. Default 1 — shape
	// neighbours may prune, the global L2 class stats may only rank.
	MaxLevel int
}

func (c PlannerConfig) marginFrac() float64 {
	if c.MarginFrac > 0 {
		return c.MarginFrac
	}
	return 0.35
}

func (c PlannerConfig) minSurvivors() int {
	if c.MinSurvivors > 0 {
		return c.MinSurvivors
	}
	return 2
}

func (c PlannerConfig) maxLevel() int {
	if c.MaxLevel > 0 {
		return c.MaxLevel
	}
	return 1
}

// Planner adapts a Model to the adapt.Prior interface for one session: it
// answers the explorer's plan queries from the model's predictions under
// the session's spec, and routes the explorer's measurements back into the
// model. Planners are cheap; models are the shared state (one per tenant in
// the serve layer, one per harness cell). Plan is a pure function of the
// model state, so sessions stay deterministic.
type Planner struct {
	model *Model
	spec  spec.Spec
	cfg   PlannerConfig
}

// NewPlanner binds a model to one session's spec and mode.
func NewPlanner(model *Model, sp spec.Spec, cfg PlannerConfig) *Planner {
	return &Planner{model: model, spec: sp, cfg: cfg}
}

// Model returns the underlying shared model.
func (p *Planner) Model() *Model { return p.model }

// Spec returns the session spec the planner predicts under.
func (p *Planner) Spec() spec.Spec { return p.spec }

// Observe implements adapt.Prior: the explorer's recorded measurements
// train the model incrementally, whatever the mode — so a cold session is
// automatically the next session's teacher, and post-drift re-measurements
// refresh the prior while re-exploration is still running.
func (p *Planner) Observe(ctx, varID, label string, us float64) {
	p.model.Observe(p.spec, varID, label, us)
}

// Invalidate implements adapt.Prior: a drift thaw decays the model's
// observation weights so the stale knowledge yields quickly to the
// re-measurements Observe is about to stream in.
func (p *Planner) Invalidate() { p.model.Decay() }

// Plan implements adapt.Prior: rank (and in ModeFull prune) varID's
// candidates by predicted cost. Variables the model knows nothing about get
// the zero plan (label order, nothing pruned). The context is unused — the
// model's features are deliberately context-free (see TrainIndex).
func (p *Planner) Plan(ctx, varID string, labels []string) adapt.PriorPlan {
	if p.cfg.Mode == ModeTrain || len(labels) < 2 {
		return adapt.PriorPlan{}
	}
	type cand struct {
		idx   int
		pred  float64
		level int
		ok    bool
	}
	cands := make([]cand, len(labels))
	known := 0
	for i, l := range labels {
		pred, level, ok := p.model.Predict(p.spec, varID, l)
		cands[i] = cand{idx: i, pred: pred, level: level, ok: ok}
		if ok {
			known++
		}
	}
	if known == 0 {
		return adapt.PriorPlan{}
	}
	// Predicted candidates first (fastest first), unpredicted ones after in
	// label order; ties break on label index. Fully deterministic.
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.ok != b.ok {
			return a.ok
		}
		if a.ok && a.pred != b.pred {
			return a.pred < b.pred
		}
		return a.idx < b.idx
	})
	plan := adapt.PriorPlan{Order: make([]int, len(cands))}
	for i, c := range cands {
		plan.Order[i] = c.idx
	}
	if p.cfg.Mode != ModeFull {
		return plan
	}
	// Prune beyond the margin. Only predictions from trusted levels prune;
	// the best trusted prediction is the reference. Unpredicted candidates
	// are never pruned (no evidence either way), and the top-K of the
	// predicted order survive unconditionally.
	best := math.Inf(1)
	for _, c := range cands {
		if c.ok && c.level <= p.cfg.maxLevel() && c.pred < best {
			best = c.pred
		}
	}
	if math.IsInf(best, 1) {
		return plan
	}
	margin := math.Log1p(p.cfg.marginFrac())
	pruned := make([]bool, len(labels))
	any := false
	for rank, c := range cands {
		if rank < p.cfg.minSurvivors() {
			continue
		}
		if c.ok && c.level <= p.cfg.maxLevel() && c.pred-best > margin {
			pruned[c.idx] = true
			any = true
		}
	}
	if any {
		plan.Pruned = pruned
	}
	return plan
}
