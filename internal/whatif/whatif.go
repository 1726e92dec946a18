// Package whatif is Astra's trace-replay what-if engine: it loads a
// recorded run's event log (obs.TrialEvent records carrying per-kernel
// BatchProfile start-rule operands), reconstructs the per-worker ×
// per-stream dependency graph that internal/analyze already exposes, and
// re-schedules it under a hypothetical perturbation — a kernel class got
// N× faster, the fabric changed, launches got cheaper, buckets doubled,
// the ring grew to eight workers — predicting the new wall time, critical
// path and per-class blame without re-running exploration.
//
// This is the Daydream idea (see PAPERS.md) applied to Astra's simulated
// substrate: one recorded run is enough to rank hypothetical
// optimizations, because kernel runtimes perturb independently while the
// dependency structure persists. Two properties keep the engine honest:
//
//   - Identity is exact. Replaying with no perturbation reproduces every
//     recorded batch time bit-for-bit, because every quantity a
//     perturbation did not touch is copied from the record, never
//     recomputed (floating-point re-derivation would drift).
//   - Predictions are validated against ground truth. Check re-simulates
//     each scenario with the real gpusim (cost overrides, a re-costed
//     CommConfig) and asserts the replay lands within a small tolerance;
//     see docs/WHATIF.md for the methodology and known limits.
package whatif

import (
	"fmt"
	"sort"
	"strings"

	"astra/internal/analyze"
	"astra/internal/distsim"
	"astra/internal/obs"
	"astra/internal/parallel"
)

// Perturbation describes one hypothetical change to a recorded run. The
// zero value is the identity (replay reproduces the recording exactly).
type Perturbation struct {
	// Speedups maps kernel classes (obs.KernelClasses) to speedup factors:
	// 2 halves the class's per-kernel execution time (setup cost excluded
	// — a faster GEMM library still pays kernel launch fixed costs).
	// Factors below 1 are slowdowns. 1 is a no-op.
	Speedups map[string]float64
	// LaunchFactor scales the CPU-side kernel launch overhead (0.5 = a
	// twice-as-fast dispatcher). 0 or 1 leaves it unchanged.
	LaunchFactor float64
	// Fabric swaps the gradient-exchange interconnect (distsim fabric
	// names); "" keeps the recorded fabric. Requires a multi-worker
	// recording.
	Fabric string
	// Workers re-sizes the data-parallel ring at a constant per-device
	// batch (weak scaling): comm kernels are re-costed for the new
	// 2·(n−1)-step ring. 0 keeps the recorded count; 1 removes the
	// exchange entirely. Requires a multi-worker recording.
	Workers int
	// BucketFactor scales the gradient-bucket size (2 = half as many
	// buckets, each twice the payload). Replay-only: the re-cost is
	// amortized (each recorded comm kernel stands for 1/factor kernels of
	// factor× payload), so Check rejects it. 0 or 1 leaves it unchanged.
	BucketFactor float64
}

// Identity reports whether the perturbation changes nothing.
func (p Perturbation) Identity() bool {
	for _, f := range p.Speedups { // lint:ok map-range order-independent any-match
		if f != 1 {
			return false
		}
	}
	return (p.LaunchFactor == 0 || p.LaunchFactor == 1) &&
		p.Fabric == "" && p.Workers == 0 &&
		(p.BucketFactor == 0 || p.BucketFactor == 1)
}

// launchFactor returns the effective launch-overhead scale (1 = unchanged).
func (p Perturbation) launchFactor() float64 {
	if p.LaunchFactor == 0 {
		return 1
	}
	return p.LaunchFactor
}

// bucketFactor returns the effective bucket scale (1 = unchanged).
func (p Perturbation) bucketFactor() float64 {
	if p.BucketFactor == 0 {
		return 1
	}
	return p.BucketFactor
}

// validate checks the perturbation against the recorded run's metadata.
func (p Perturbation) validate(meta RunMeta) error {
	classes := make([]string, 0, len(p.Speedups))
	for class := range p.Speedups { // lint:ok map-range sorted below
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		f := p.Speedups[class]
		if !validClass(class) {
			return fmt.Errorf("whatif: unknown kernel class %q (valid: %s)",
				class, strings.Join(obs.KernelClasses(), ", "))
		}
		if f <= 0 {
			return fmt.Errorf("whatif: speedup factor for class %q must be positive, got %v", class, f)
		}
	}
	if p.LaunchFactor < 0 {
		return fmt.Errorf("whatif: launch-overhead factor must be positive, got %v", p.LaunchFactor)
	}
	if p.BucketFactor < 0 {
		return fmt.Errorf("whatif: bucket factor must be positive, got %v", p.BucketFactor)
	}
	if p.Workers < 0 {
		return fmt.Errorf("whatif: worker count must be positive, got %d", p.Workers)
	}
	if p.Fabric != "" {
		if _, ok := distsim.FabricByName(p.Fabric); !ok {
			return fmt.Errorf("whatif: unknown fabric %q (valid: %s)",
				p.Fabric, strings.Join(fabricNames(), ", "))
		}
	}
	commChange := p.Fabric != "" || p.Workers > 1 || p.bucketFactor() != 1
	if commChange && meta.Workers < 2 {
		return fmt.Errorf("whatif: recorded run is single-GPU (no gradient exchange to re-cost); fabric/workers/bucket perturbations need a -workers >= 2 recording")
	}
	if meta.Workers >= 2 && (p.Fabric != "" || p.Workers != 0 || p.bucketFactor() != 1) {
		if _, ok := distsim.FabricByName(meta.Fabric); !ok {
			return fmt.Errorf("whatif: recorded fabric %q is not a known interconnect; cannot re-cost communication", meta.Fabric)
		}
	}
	return nil
}

func validClass(c string) bool {
	for _, k := range obs.KernelClasses() {
		if k == c {
			return true
		}
	}
	return false
}

func fabricNames() []string {
	var out []string
	for _, ic := range distsim.Fabrics() {
		out = append(out, ic.Name)
	}
	sort.Strings(out)
	return out
}

// Scenario is a named perturbation — one cell of a what-if matrix.
type Scenario struct {
	Name string       `json:"name"`
	Pert Perturbation `json:"perturbation"`
}

// RunMeta pins the recorded session's construction facts, read from the
// metadata the wire session stamps on every event record. Older logs
// without metadata fall back to the simulator defaults (good enough for
// replay; Check refuses them).
type RunMeta struct {
	Model            string  `json:"model,omitempty"`
	ModelScale       string  `json:"model_scale,omitempty"`
	PerDeviceBatch   int     `json:"per_device_batch,omitempty"`
	Preset           string  `json:"preset,omitempty"`
	NumStreams       int     `json:"num_streams,omitempty"`
	Seed             uint64  `json:"seed,omitempty"`
	PerOpCPUUs       float64 `json:"per_op_cpu_us"`
	LaunchOverheadUs float64 `json:"launch_overhead_us"`
	KernelSetupUs    float64 `json:"kernel_setup_us"`
	Workers          int     `json:"workers"`
	Fabric           string  `json:"fabric,omitempty"`
	Noisy            bool    `json:"noisy,omitempty"`
	// HasMeta reports whether the log carried session metadata at all.
	HasMeta bool `json:"has_meta"`
}

// MetaFromEvents extracts the run metadata from an event log. Cost
// constants default to the P100 configuration (launch 7 µs, setup 1.5 µs,
// per-op CPU 2 µs) when the log predates metadata stamping.
func MetaFromEvents(events []obs.TrialEvent) RunMeta {
	meta := RunMeta{PerOpCPUUs: 2, LaunchOverheadUs: 7, KernelSetupUs: 1.5, Workers: 1}
	for i := range events {
		ev := &events[i]
		if ev.Workers > meta.Workers {
			meta.Workers = ev.Workers
		}
		if ev.Fabric != "" {
			meta.Fabric = ev.Fabric
		}
		if ev.Model == "" {
			continue
		}
		meta.HasMeta = true
		meta.Model = ev.Model
		meta.ModelScale = ev.ModelScale
		meta.PerDeviceBatch = ev.PerDeviceBatch
		meta.Preset = ev.Preset
		meta.NumStreams = ev.NumStreams
		meta.Seed = ev.Seed
		meta.PerOpCPUUs = ev.PerOpCPUUs
		meta.LaunchOverheadUs = ev.LaunchOverheadUs
		meta.KernelSetupUs = ev.KernelSetupUs
		meta.Noisy = meta.Noisy || ev.Noisy
	}
	return meta
}

// BatchPrediction pairs one recorded batch with its predicted replay.
type BatchPrediction struct {
	Batch       int     `json:"batch"`
	Trial       int     `json:"trial"`
	Phase       string  `json:"phase"`
	RecordedUs  float64 `json:"recorded_us"`
	PredictedUs float64 `json:"predicted_us"`
}

// Prediction is the replay of one scenario over a whole event log.
type Prediction struct {
	Scenario Scenario `json:"scenario"`
	Meta     RunMeta  `json:"meta"`
	// Batches holds every replayed batch in log order.
	Batches []BatchPrediction `json:"batches"`
	// RecordedTotalUs/PredictedTotalUs sum the batch times over the log.
	RecordedTotalUs  float64 `json:"recorded_total_us"`
	PredictedTotalUs float64 `json:"predicted_total_us"`
	// RecordedWiredUs/PredictedWiredUs are the headline numbers: the last
	// wired batch (steady state) before and after the perturbation, and
	// SpeedupX their ratio (>1 = the perturbation helps).
	RecordedWiredUs  float64 `json:"recorded_wired_us"`
	PredictedWiredUs float64 `json:"predicted_wired_us"`
	SpeedupX         float64 `json:"speedup_x"`
	// Blame is the predicted last wired batch's critical-path blame (the
	// new critical path, summed by class), and Diff the run-level blame
	// delta attribution recorded → predicted.
	Blame map[string]float64  `json:"blame"`
	Path  []analyze.Segment   `json:"path,omitempty"`
	Diff  *analyze.DiffReport `json:"diff"`
	// Events holds the predicted event log: the recorded events with
	// profiles, batch times and scenario metadata (fabric, workers)
	// replaced by their replayed values. Every analyze entry point runs on
	// it unchanged.
	Events []obs.TrialEvent `json:"-"`
}

// Predict replays every batch of the event log under the scenario.
func Predict(events []obs.TrialEvent, sc Scenario) (*Prediction, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("whatif: empty event log")
	}
	meta := MetaFromEvents(events)
	if err := sc.Pert.validate(meta); err != nil {
		return nil, err
	}
	pred := &Prediction{Scenario: sc, Meta: meta}
	clock := 0.0
	sawWired := false
	for i := range events {
		ev, err := predictEvent(&events[i], meta, sc.Pert)
		if err != nil {
			return nil, fmt.Errorf("whatif: batch %d: %w", events[i].Batch, err)
		}
		ev.StartUs = clock
		clock += ev.BatchUs
		pred.Events = append(pred.Events, ev)
		pred.Batches = append(pred.Batches, BatchPrediction{
			Batch: ev.Batch, Trial: ev.Trial, Phase: ev.Phase,
			RecordedUs: events[i].BatchUs, PredictedUs: ev.BatchUs,
		})
		pred.RecordedTotalUs += events[i].BatchUs
		pred.PredictedTotalUs += ev.BatchUs
		if ev.Phase == "wired" || !sawWired {
			// Last wired batch wins; an explore-only log falls back to its
			// last trial.
			sawWired = sawWired || ev.Phase == "wired"
			pred.RecordedWiredUs = events[i].BatchUs
			pred.PredictedWiredUs = ev.BatchUs
		}
	}
	if pred.PredictedWiredUs > 0 {
		pred.SpeedupX = pred.RecordedWiredUs / pred.PredictedWiredUs
	}
	// Blame attribution: analyze the recorded and predicted logs with the
	// same machinery reports use, then diff. Single-goroutine analysis —
	// matrix callers parallelize across scenarios, not inside one.
	recRun, err := analyze.AnalyzeRun(events, 1)
	if err != nil {
		return nil, fmt.Errorf("whatif: analyzing recorded log: %w", err)
	}
	preRun, err := analyze.AnalyzeRun(pred.Events, 1)
	if err != nil {
		return nil, fmt.Errorf("whatif: analyzing predicted log: %w", err)
	}
	pred.Diff = analyze.Diff(recRun, preRun)
	if n := len(preRun.Batches); n > 0 {
		last := preRun.Batches[n-1]
		pred.Blame = last.PathBlame
		pred.Path = last.Path
	}
	return pred, nil
}

// PredictMatrix replays every scenario, fanning out across `par`
// goroutines (<1 = one per CPU) via internal/parallel — the result is
// byte-identical for any parallelism because scenarios are independent
// and merged in input order.
func PredictMatrix(events []obs.TrialEvent, scenarios []Scenario, par int) ([]*Prediction, error) {
	return parallel.Map(par, len(scenarios), func(i int) (*Prediction, error) {
		return Predict(events, scenarios[i])
	})
}
