package harness

import (
	"fmt"

	"astra/internal/costmodel"
	"astra/internal/distsim"
	"astra/internal/enumerate"
	"astra/internal/parallel"
	"astra/internal/spec"
)

func init() {
	experiments["ext-costmodel"] = ExtCostModel
}

// CostModelComparison is one ext-costmodel cell: the same model/fabric pair
// explored cold and prior-seeded, with the exhaustive comm sweep as ground
// truth. The prior is trained only by a donor session at a *different*
// batch size, so every prediction the seeded run uses came through the
// cost model's neighbour-shape (L1) transfer, never from an exact-shape
// replay of the target exploration.
type CostModelComparison struct {
	Model   string
	Fabric  string
	Workers int
	// DonorTrials is what the batch-32 teacher session spent (ModeTrain:
	// behaviour identical to a prior-free run, it only feeds the model).
	DonorTrials int
	// ColdTrials/ColdUs are the prior-free target exploration; PriorTrials/
	// PriorUs the same target exploration seeded with the donor-trained
	// model (ModeFull: rank + margin prune).
	ColdTrials  int
	ColdUs      float64
	PriorTrials int
	PriorUs     float64
	// ExhaustiveUs is the best fixed comm schedule from the offline sweep.
	ExhaustiveUs float64
	// BindingFlips counts variables the cold and seeded runs froze
	// differently. Reordering visits changes which configurations share a
	// trial, so near-tie variables may flip either way; the step-time
	// gates prove the flips are cost-neutral, and the pruned-winner audit
	// proves none of them was forced by pruning.
	BindingFlips int
	// Prior counts the seeded run's plan quality (hits/misses/prunes).
	Prior struct {
		Hits, Misses, Pruned, RankInv int
	}
}

// ReductionPct is the trials-to-freeze saving of the seeded run.
func (c CostModelComparison) ReductionPct() float64 {
	if c.ColdTrials == 0 {
		return 0
	}
	return 100 * (1 - float64(c.PriorTrials)/float64(c.ColdTrials))
}

// GapPct is the seeded run's distance from the exhaustive comm optimum.
func (c CostModelComparison) GapPct() float64 {
	if c.ExhaustiveUs == 0 {
		return 0
	}
	return 100 * (c.PriorUs/c.ExhaustiveUs - 1)
}

// CompareCostModel runs one cell. donorBatch trains the model (ModeTrain),
// globalBatch is explored cold and then seeded (ModeFull); the two target
// runs must freeze identical bindings — the K-survivor valve and margin
// guarantee the measured best is never pruned away — and the seeded result
// must stay within 0.1% of both the cold result and the exhaustive sweep.
func CompareCostModel(model string, fabric distsim.Interconnect, globalBatch, donorBatch, workers int) (CostModelComparison, error) {
	out := CostModelComparison{Model: model, Fabric: fabric.Name, Workers: workers}
	shared := costmodel.NewModel()
	specAt := func(batch int) spec.Spec {
		sp := spec.New(model, spec.ScaleDefault, batch/workers, spec.PresetFK)
		sp.Workers, sp.Fabric = workers, fabric.Name
		return sp
	}

	// Donor: a neighbour-shape session teaches the model. ModeTrain plans
	// nothing, so this is exactly a cold exploration that happens to be
	// observed.
	donor := &distsim.Cluster{
		Interconnect: fabric, Preset: enumerate.PresetFK,
		Prior: costmodel.NewPlanner(shared, specAt(donorBatch), costmodel.PlannerConfig{Mode: costmodel.ModeTrain}),
	}
	dres, err := donor.Step(model, donorBatch, workers)
	if err != nil {
		return out, fmt.Errorf("donor: %w", err)
	}
	out.DonorTrials = dres.Trials

	// Cold reference at the target shape: no prior at all.
	cold := &distsim.Cluster{Interconnect: fabric, Preset: enumerate.PresetFK}
	cres, err := cold.Step(model, globalBatch, workers)
	if err != nil {
		return out, fmt.Errorf("cold: %w", err)
	}
	out.ColdTrials, out.ColdUs = cres.Trials, cres.StepUs

	// Seeded: same target shape, donor-trained model, rank + prune. The
	// target batch bucket was never observed, so every plan comes from the
	// L1 neighbour-shape backoff.
	seeded := &distsim.Cluster{
		Interconnect: fabric, Preset: enumerate.PresetFK,
		Prior: costmodel.NewPlanner(shared, specAt(globalBatch), costmodel.PlannerConfig{Mode: costmodel.ModeFull}),
	}
	pres, err := seeded.Step(model, globalBatch, workers)
	if err != nil {
		return out, fmt.Errorf("seeded: %w", err)
	}
	out.PriorTrials, out.PriorUs = pres.Trials, pres.StepUs
	out.Prior.Hits, out.Prior.Misses = pres.Prior.Hits, pres.Prior.Misses
	out.Prior.Pruned, out.Prior.RankInv = pres.Prior.Pruned, pres.Prior.RankInversions

	// Ground truth: the offline exhaustive comm sweep.
	exh := &distsim.Cluster{Interconnect: fabric, Preset: enumerate.PresetFK}
	sweep, best, err := exh.Exhaustive(model, globalBatch, workers)
	if err != nil {
		return out, fmt.Errorf("exhaustive: %w", err)
	}
	out.ExhaustiveUs = sweep[best].StepUs

	// Safety gates, per cell. First the pruning audit: no binding the cold
	// run froze may ever have been pruned by the seeded run's plans — the
	// prior is allowed to reorder the path to the answer, never to make
	// the reference answer unmeasurable.
	pruned := make(map[string]bool, len(pres.PrunedChoices))
	for _, pc := range pres.PrunedChoices {
		pruned[pc] = true
	}
	for _, b := range cres.Bindings {
		if pruned[b] {
			return out, fmt.Errorf("%s/%s: seeded exploration pruned the cold run's winner %q", model, fabric.Name, b)
		}
	}
	out.BindingFlips = bindingFlips(cres.Bindings, pres.Bindings)
	if diff := relDiffPct(pres.StepUs, cres.StepUs); diff > 0.1 {
		return out, fmt.Errorf("%s/%s: seeded step %.1fµs vs cold %.1fµs (%.3f%% apart, gate 0.1%%)",
			model, fabric.Name, pres.StepUs, cres.StepUs, diff)
	}
	if gap := out.GapPct(); gap > 0.1 {
		return out, fmt.Errorf("%s/%s: seeded step %.1fµs is %.3f%% off exhaustive %.1fµs (gate 0.1%%)",
			model, fabric.Name, pres.StepUs, gap, out.ExhaustiveUs)
	}
	return out, nil
}

// bindingFlips counts "var=label" entries present in exactly one of two
// sorted binding lists, per variable (a flip counts once, not twice).
func bindingFlips(a, b []string) int {
	in := make(map[string]bool, len(a))
	for _, s := range a {
		in[s] = true
	}
	flips := 0
	for _, s := range b {
		if !in[s] {
			flips++
		}
	}
	return flips
}

func relDiffPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := 100 * (a/b - 1)
	if d < 0 {
		d = -d
	}
	return d
}

// ExtCostModel measures the cost-model prior end to end: for each
// model/fabric pair a donor session at batch 32 trains the model, and the
// batch-64 target exploration runs cold vs prior-seeded. The headline
// number is trials-to-freeze; the safety columns prove the seeded run
// froze the identical schedule and stayed within 0.1% of the exhaustive
// comm optimum. The acceptance gate is a ≥25% trial reduction on at least
// 3 of the 4 cells.
func ExtCostModel(o Options) (*Table, error) {
	t := &Table{
		ID:    "ext-costmodel",
		Title: "Prior-seeded vs cold exploration, 4 workers, donor batch 32 → target batch 64 (trials to freeze)",
		Header: []string{
			"Model", "fabric", "cold trials", "seeded trials", "reduction",
			"cold µs", "seeded µs", "exhaustive µs", "gap", "hits/misses", "pruned", "flips",
		},
		Notes: []string{
			"donor: a batch-32 session trains the cost model (ModeTrain — behaviour identical to cold)",
			"seeded: batch-64 exploration re-ranked and margin-pruned by the donor-trained model (L1 neighbour-shape transfer)",
			"safety: no cold-run winner was ever pruned (asserted), and the seeded step is within 0.1% of cold",
			"gap: seeded wired step vs the offline exhaustive comm sweep (gate 0.1%)",
			"flips: near-tie variables frozen differently under the reordered visit schedule (cost-neutral by the gates above)",
		},
	}
	models := []string{"scrnn", "sublstm"}
	fabrics := distsim.Fabrics()
	type cell struct {
		row []string
		cmp CostModelComparison
	}
	cells, err := parallel.Map(o.workers(), len(models)*len(fabrics), func(i int) (cell, error) {
		name, fabric := models[i/len(fabrics)], fabrics[i%len(fabrics)]
		c, err := CompareCostModel(name, fabric, 64, 32, 4)
		if err != nil {
			return cell{}, err
		}
		o.progress("ext-costmodel %s %s done (%d -> %d trials)", name, fabric.Name, c.ColdTrials, c.PriorTrials)
		return cell{
			row: []string{
				name, fabric.Name,
				fmt.Sprintf("%d", c.ColdTrials),
				fmt.Sprintf("%d", c.PriorTrials),
				fmt.Sprintf("%.0f%%", c.ReductionPct()),
				fmt.Sprintf("%.0f", c.ColdUs),
				fmt.Sprintf("%.0f", c.PriorUs),
				fmt.Sprintf("%.0f", c.ExhaustiveUs),
				fmt.Sprintf("%.2f%%", c.GapPct()),
				fmt.Sprintf("%d/%d", c.Prior.Hits, c.Prior.Misses),
				fmt.Sprintf("%d", c.Prior.Pruned),
				fmt.Sprintf("%d", c.BindingFlips),
			},
			cmp: c,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	hit := 0
	for _, c := range cells {
		if c.cmp.ReductionPct() >= 25 {
			hit++
		}
		t.Rows = append(t.Rows, c.row)
	}
	if hit < 3 {
		return nil, fmt.Errorf("ext-costmodel: only %d of %d cells reached a 25%% trial reduction", hit, len(cells))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("acceptance: %d of %d cells at >= 25%% trial reduction (gate: 3)", hit, len(cells)))
	return t, nil
}
