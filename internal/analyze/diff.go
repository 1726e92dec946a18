package analyze

import "sort"

// DiffReport attributes the end-to-end time delta between two runs of the
// same job. Batches are aligned by batch number; for every aligned pair the
// wall-time delta is partitioned by critical-path blame — since each
// batch's blame map partitions its wall time exactly, the per-class deltas
// sum to the aligned delta with zero residue. A regression confined to one
// kernel class (a throttled GEMM library, a slower fabric) therefore lands
// on that class, not on "the run got slower".
type DiffReport struct {
	// TotalAUs/TotalBUs are the runs' full simulated times; DeltaUs their
	// difference (B − A, positive = B slower).
	TotalAUs float64 `json:"total_a_us"`
	TotalBUs float64 `json:"total_b_us"`
	DeltaUs  float64 `json:"delta_us"`
	// AlignedBatches counts batch numbers analyzed in both runs;
	// AlignedDeltaUs is the wall delta over those pairs (equal to the sum
	// of ByClass). UnalignedAUs/UnalignedBUs hold analyzed time that had
	// no partner and is excluded from attribution.
	AlignedBatches int     `json:"aligned_batches"`
	AlignedDeltaUs float64 `json:"aligned_delta_us"`
	UnalignedAUs   float64 `json:"unaligned_a_us"`
	UnalignedBUs   float64 `json:"unaligned_b_us"`
	// ByClass partitions AlignedDeltaUs by critical-path blame class;
	// ByPhase splits it by batch phase; ByCategory diffs the idle-gap
	// taxonomy (informative: idle categories overlap busy classes, so this
	// one is not a partition of the delta).
	ByClass    map[string]float64 `json:"by_class"`
	ByPhase    map[string]float64 `json:"by_phase"`
	ByCategory map[string]float64 `json:"by_category"`
	// Convergence deltas (B − A): exploration effort is where a cost-model
	// prior pays off, so `-diff cold.jsonl guided.jsonl` surfaces the trial
	// saving directly. Zero-valued when neither run carries convergence
	// analytics.
	TrialsA             int `json:"trials_a"`
	TrialsB             int `json:"trials_b"`
	TrialsDelta         int `json:"trials_delta"`
	TrialsToFreezeA     int `json:"trials_to_freeze_a"`
	TrialsToFreezeB     int `json:"trials_to_freeze_b"`
	TrialsToFreezeDelta int `json:"trials_to_freeze_delta"`
	// TopClass is the class with the largest absolute delta and
	// TopClassShare its fraction of |AlignedDeltaUs| (the "blame" line).
	// When the aligned delta is zero — identical runs, or per-class deltas
	// that cancel exactly — there is no meaningful blame: TopClass is empty
	// and TopClassShare 0, never NaN or ±Inf (the JSON encoder rejects
	// those).
	TopClass      string  `json:"top_class"`
	TopClassShare float64 `json:"top_class_share"`
}

// Diff aligns two analyzed runs and attributes their delta.
func Diff(a, b *Run) *DiffReport {
	d := &DiffReport{
		TotalAUs:   a.TotalUs,
		TotalBUs:   b.TotalUs,
		ByClass:    map[string]float64{},
		ByPhase:    map[string]float64{},
		ByCategory: map[string]float64{},
	}
	d.DeltaUs = d.TotalBUs - d.TotalAUs
	inA := map[int]*BatchAnalysis{}
	for _, ba := range a.Batches {
		inA[ba.Batch] = ba
	}
	paired := map[int]bool{}
	for _, bb := range b.Batches {
		ba := inA[bb.Batch]
		if ba == nil {
			d.UnalignedBUs += bb.WallUs
			continue
		}
		paired[bb.Batch] = true
		d.AlignedBatches++
		d.AlignedDeltaUs += bb.WallUs - ba.WallUs
		subMap(d.ByClass, bb.PathBlame, ba.PathBlame)
		phase := bb.Phase
		if ba.Phase != bb.Phase {
			phase = "mixed"
		}
		d.ByPhase[phase] += bb.WallUs - ba.WallUs
		subMap(d.ByCategory, bb.IdleUs, ba.IdleUs)
	}
	for _, ba := range a.Batches {
		if !paired[ba.Batch] {
			d.UnalignedAUs += ba.WallUs
		}
	}
	if a.Converge != nil {
		d.TrialsA, d.TrialsToFreezeA = a.Converge.Trials, a.Converge.TrialsToFreeze
	}
	if b.Converge != nil {
		d.TrialsB, d.TrialsToFreezeB = b.Converge.Trials, b.Converge.TrialsToFreeze
	}
	d.TrialsDelta = d.TrialsB - d.TrialsA
	d.TrialsToFreezeDelta = d.TrialsToFreezeB - d.TrialsToFreezeA
	d.TopClass, d.TopClassShare = topClass(d.ByClass, d.AlignedDeltaUs)
	return d
}

// subMap accumulates (b − a) per key into dst.
func subMap(dst, b, a map[string]float64) {
	for k, v := range b { // lint:ok map-range per-key accumulation is order-independent across keys
		dst[k] += v
	}
	for k, v := range a { // lint:ok map-range per-key accumulation is order-independent across keys
		dst[k] -= v
	}
}

// topClass picks the class with the largest absolute delta (ties break to
// the lexically first name, so the result is deterministic) and its share
// of |total|. A zero total yields ("", 0): dividing by it would produce
// NaN/Inf, which json.Marshal refuses — and with no net delta there is
// nothing to blame even when individual class deltas cancel.
func topClass(byClass map[string]float64, total float64) (string, float64) {
	if total == 0 {
		return "", 0
	}
	names := make([]string, 0, len(byClass))
	for k := range byClass { // lint:ok map-range keys are sorted before use
		names = append(names, k)
	}
	sort.Strings(names)
	top, best := "", 0.0
	for _, k := range names {
		if v := abs(byClass[k]); v > best {
			top, best = k, v
		}
	}
	if top == "" {
		return top, 0
	}
	return top, byClass[top] / abs(total)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
