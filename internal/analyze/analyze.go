// Package analyze is Astra's trace-analytics engine: it ingests the
// structured event stream a session emits (obs.TrialEvent records carrying
// per-worker obs.BatchProfile kernel timelines) and answers the questions
// raw traces only gesture at — what bound each batch (critical path), where
// every idle microsecond went (utilization taxonomy), how well bucketed
// all-reduce overlapped compute, how exploration converged, and why one run
// was slower than another (diff blame).
//
// Everything is computed on the simulated clock, so every reconciliation is
// exact: the critical-path segments of a batch sum to the batch wall time
// with zero tolerance, and the per-stream taxonomy partitions each stream's
// timeline with no gaps and no overlaps. This works because the simulator
// records, for every kernel, the exact float operands of its start rule
//
//	StartUs = max(LaunchUs, FreeUs, WaitUs)
//
// so the analyzer can rebuild the binding constraint of each kernel by
// exact equality instead of tolerance windows (see obs.KernelSample).
//
// The per-batch dependency walk is the kernel-level dependency graph of a
// recorded run, in the spirit of Daydream's dependency-graph substrate —
// and the same walk is what a future astra-whatif replayer will mutate, so
// the core here (CriticalPath, StreamTimelines, interval unions) is kept
// free of reporting concerns.
package analyze

import (
	"fmt"
	"sort"

	"astra/internal/obs"
	"astra/internal/parallel"
)

// Kernel classes and segment kinds. The classing itself lives in obs
// (obs.KernelClass) so the simulator's fault injection and the what-if
// engine's cost perturbations attribute to exactly the same classes the
// blame reports use; the aliases keep this package's callers unchanged.
const (
	ClassGEMM      = obs.ClassGEMM
	ClassEW        = obs.ClassEW
	ClassCopy      = obs.ClassCopy
	ClassAllReduce = obs.ClassAllReduce
	ClassOther     = obs.ClassOther
	// ClassDispatch labels critical-path time spent on the serial CPU
	// dispatcher rather than any device kernel (analyzer-only: no kernel
	// name maps to it).
	ClassDispatch = "dispatch"
)

// Idle-gap taxonomy categories (see docs/OBSERVABILITY.md for the precise
// definitions). Busy device time is categorized separately by kernel class.
const (
	// IdleLaunchGap: the stream had drained and its next kernel had not
	// been issued by the CPU yet — dispatch-bound idleness.
	IdleLaunchGap = "launch_gap"
	// IdleEpochWait: waiting on the previous epoch's end events
	// (cross-stream ordering between epochs).
	IdleEpochWait = "epoch_wait"
	// IdleBarrierWait: waiting at a super-epoch barrier (including the
	// catch-up waits of a stream entering the schedule after a barrier).
	IdleBarrierWait = "barrier_wait"
	// IdleBucketStall: the comm stream waiting for a gradient bucket's
	// producing streams to finish.
	IdleBucketStall = "bucket_stall"
	// IdleExposedComm: compute (stream 0) waiting for the gradient
	// exchange to drain at batch end — communication not hidden by
	// compute.
	IdleExposedComm = "exposed_comm"
	// IdleSyncWait: an event wait the dispatcher did not label.
	IdleSyncWait = "sync_wait"
	// IdleDrain: the stream finished its work before the worker's batch
	// end and simply had nothing left to do.
	IdleDrain = "drain"
	// IdleStragglerWait: this worker finished before the cluster's slowest
	// worker (multi-GPU only).
	IdleStragglerWait = "straggler_wait"
)

// waitTagCategory maps a dispatcher wait tag (gpusim.WaitEventTag) to its
// taxonomy category.
func waitTagCategory(tag string) string {
	switch tag {
	case "epoch":
		return IdleEpochWait
	case "barrier":
		return IdleBarrierWait
	case "bucket":
		return IdleBucketStall
	case "commjoin":
		return IdleExposedComm
	default:
		return IdleSyncWait
	}
}

// Class returns the kernel class of a recorded kernel name (an alias of
// obs.KernelClass, kept for this package's callers).
func Class(name string) string { return obs.KernelClass(name) }

// Segment is one interval of a critical path or of a stream timeline.
// Critical-path segments chain contiguously from 0 to the batch wall time;
// timeline segments partition one stream's [0, horizon].
type Segment struct {
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// Kind is "busy" for kernel execution, ClassDispatch for CPU dispatch
	// time on the critical path, or an Idle* category.
	Kind string `json:"kind"`
	// Class is the kernel class for busy segments ("" otherwise).
	Class string `json:"class,omitempty"`
	// Name is the kernel name for busy segments ("" otherwise).
	Name string `json:"name,omitempty"`
	// Stream and Worker locate the segment (critical paths may hop
	// streams; timelines keep them fixed).
	Stream int `json:"stream"`
	Worker int `json:"worker"`
}

// DurUs returns the segment duration.
func (s *Segment) DurUs() float64 { return s.EndUs - s.StartUs }

// BatchAnalysis is everything the analyzer derives from one batch's
// profiles.
type BatchAnalysis struct {
	Batch   int     `json:"batch"`
	Trial   int     `json:"trial"`
	Phase   string  `json:"phase"`
	WallUs  float64 `json:"wall_us"`
	Workers int     `json:"workers"`
	// PathWorker is the rank whose device bound the batch (the slowest
	// worker); Path is its exact critical path, whose segments sum to
	// WallUs. PathBlame sums path time by kernel class (plus
	// ClassDispatch).
	PathWorker int                `json:"path_worker"`
	Path       []Segment          `json:"path"`
	PathBlame  map[string]float64 `json:"path_blame"`
	// Streams holds every worker×stream timeline partition of [0, WallUs].
	Streams []StreamTimeline `json:"streams"`
	// BusyUs sums device-busy time by kernel class and IdleUs idle time by
	// taxonomy category, across all workers and streams.
	BusyUs map[string]float64 `json:"busy_us"`
	IdleUs map[string]float64 `json:"idle_us"`
	// Overlap reports achieved vs ideal compute/communication overlap.
	Overlap OverlapStats `json:"overlap"`
}

// AnalyzeBatch analyzes one event's profiles. Events without profiles
// return nil (not every producer attaches kernel timelines).
func AnalyzeBatch(ev *obs.TrialEvent) (*BatchAnalysis, error) {
	if len(ev.Profiles) == 0 {
		return nil, nil
	}
	ba := &BatchAnalysis{
		Batch:   ev.Batch,
		Trial:   ev.Trial,
		Phase:   ev.Phase,
		Workers: len(ev.Profiles),
		BusyUs:  map[string]float64{},
		IdleUs:  map[string]float64{},
	}
	// The cluster wall time is the slowest worker's wall; the first such
	// rank (deterministic) carries the critical path.
	wall, pathWorker := 0.0, 0
	for i := range ev.Profiles {
		if w := ev.Profiles[i].WallUs(); w > wall {
			wall, pathWorker = w, i
		}
	}
	ba.WallUs = wall
	ba.PathWorker = ev.Profiles[pathWorker].Worker
	ba.Path = CriticalPath(&ev.Profiles[pathWorker])
	ba.PathBlame = blame(ba.Path)
	for i := range ev.Profiles {
		tls := StreamTimelines(&ev.Profiles[i], wall)
		ba.Streams = append(ba.Streams, tls...)
		for _, tl := range tls {
			for _, seg := range tl.Segments {
				if seg.Kind == "busy" {
					ba.BusyUs[seg.Class] += seg.DurUs()
				} else {
					ba.IdleUs[seg.Kind] += seg.DurUs()
				}
			}
		}
		acc := Overlap(&ev.Profiles[i])
		ba.Overlap.CommBusyUs += acc.CommBusyUs
		ba.Overlap.ComputeBusyUs += acc.ComputeBusyUs
		ba.Overlap.OverlapUs += acc.OverlapUs
		ba.Overlap.IdealUs += acc.IdealUs
	}
	ba.Overlap.finish()
	return ba, nil
}

// blame sums segment durations by class (busy segments) or kind (dispatch).
func blame(path []Segment) map[string]float64 {
	out := map[string]float64{}
	for _, seg := range path {
		key := seg.Class
		if seg.Kind != "busy" {
			key = seg.Kind
		}
		out[key] += seg.DurUs()
	}
	return out
}

// Run is one ingested event log plus its per-batch analyses.
type Run struct {
	// Events is every record of the log, in emission order.
	Events []obs.TrialEvent `json:"-"`
	// Batches holds the analyses of the profile-bearing events, in batch
	// order.
	Batches []*BatchAnalysis `json:"batches"`
	// Fabric and Workers describe the cluster (from the first event that
	// names them; empty/0 for single-GPU runs).
	Fabric  string `json:"fabric,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// TotalUs sums BatchUs over every event (the run's simulated time);
	// AnalyzedUs sums only the profile-bearing batches.
	TotalUs    float64 `json:"total_us"`
	AnalyzedUs float64 `json:"analyzed_us"`
	// PathBlame, BusyUs and IdleUs aggregate the per-batch maps over the
	// run in batch order.
	PathBlame map[string]float64 `json:"path_blame"`
	BusyUs    map[string]float64 `json:"busy_us"`
	IdleUs    map[string]float64 `json:"idle_us"`
	// Converge is the exploration-convergence report.
	Converge *ConvergeReport `json:"converge"`
}

// AnalyzeRun analyzes a whole event log. Batches are analyzed on up to
// `workers` goroutines (<1 means one per CPU); the merged result is
// byte-identical for any worker count because the per-batch analyses are
// independent and merged in batch order.
func AnalyzeRun(events []obs.TrialEvent, workers int) (*Run, error) {
	run := &Run{
		Events:    events,
		PathBlame: map[string]float64{},
		BusyUs:    map[string]float64{},
		IdleUs:    map[string]float64{},
	}
	analyses, err := parallel.Map(workers, len(events), func(i int) (*BatchAnalysis, error) {
		return AnalyzeBatch(&events[i])
	})
	if err != nil {
		return nil, err
	}
	for i := range events {
		ev := &events[i]
		run.TotalUs += ev.BatchUs
		if ev.Fabric != "" && run.Fabric == "" {
			run.Fabric = ev.Fabric
		}
		if ev.Workers > run.Workers {
			run.Workers = ev.Workers
		}
		ba := analyses[i]
		if ba == nil {
			continue
		}
		run.Batches = append(run.Batches, ba)
		run.AnalyzedUs += ba.WallUs
		addMap(run.PathBlame, ba.PathBlame)
		addMap(run.BusyUs, ba.BusyUs)
		addMap(run.IdleUs, ba.IdleUs)
	}
	run.Converge = convergeFromEvents(events)
	return run, nil
}

// addMap accumulates src into dst. Iteration order does not matter: each
// key's additions happen in the caller's (batch) order, and distinct keys
// are independent.
func addMap(dst, src map[string]float64) {
	for k, v := range src { // lint:ok map-range per-key accumulation is order-independent across keys
		dst[k] += v
	}
}

// sortedKeys returns the map's keys in sorted order — the iteration order
// every report emitter uses.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m { // lint:ok map-range keys are sorted before use
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Verify checks the analyzer's exactness guarantees over a run and returns
// the first violation: every batch's critical path must chain contiguously
// from 0 to the batch wall time (which must equal the event's BatchUs), and
// every stream timeline must partition [0, wall] with no gaps or overlaps.
// All comparisons are exact — the clock is simulated, so there is no
// tolerance to hide behind.
func Verify(run *Run) error {
	byBatch := map[int]*obs.TrialEvent{}
	for i := range run.Events {
		byBatch[run.Events[i].Batch] = &run.Events[i]
	}
	for _, ba := range run.Batches {
		ev := byBatch[ba.Batch]
		if ev == nil {
			return fmt.Errorf("analyze: batch %d has no event record", ba.Batch)
		}
		if ba.WallUs != ev.BatchUs {
			return fmt.Errorf("analyze: batch %d wall %v != event batch_us %v",
				ba.Batch, ba.WallUs, ev.BatchUs)
		}
		if err := verifyChain(ba.Path, ba.WallUs); err != nil {
			return fmt.Errorf("analyze: batch %d critical path: %w", ba.Batch, err)
		}
		if got := pathSumUs(ba.Path); got != ba.WallUs {
			return fmt.Errorf("analyze: batch %d path spans %v, wall %v", ba.Batch, got, ba.WallUs)
		}
		for _, tl := range ba.Streams {
			if err := verifyChain(tl.Segments, ba.WallUs); err != nil {
				return fmt.Errorf("analyze: batch %d worker %d stream %d: %w",
					ba.Batch, tl.Worker, tl.Stream, err)
			}
		}
	}
	return nil
}

// verifyChain checks that segments are contiguous, non-overlapping and
// cover exactly [0, horizon].
func verifyChain(segs []Segment, horizon float64) error {
	if len(segs) == 0 {
		if horizon != 0 {
			return fmt.Errorf("empty segment chain for horizon %v", horizon)
		}
		return nil
	}
	if segs[0].StartUs != 0 {
		return fmt.Errorf("first segment starts at %v, not 0", segs[0].StartUs)
	}
	for i := range segs {
		if segs[i].EndUs < segs[i].StartUs {
			return fmt.Errorf("segment %d runs backwards: %+v", i, segs[i])
		}
		if i > 0 && segs[i].StartUs != segs[i-1].EndUs {
			return fmt.Errorf("gap/overlap between segment %d (ends %v) and %d (starts %v)",
				i-1, segs[i-1].EndUs, i, segs[i].StartUs)
		}
	}
	if last := segs[len(segs)-1].EndUs; last != horizon {
		return fmt.Errorf("last segment ends at %v, horizon %v", last, horizon)
	}
	return nil
}

// pathSumUs returns the exact covered span of a contiguous chain: because
// the chain is boundary-contiguous, the sum of its durations telescopes to
// last.End − first.Start with no floating-point residue.
func pathSumUs(segs []Segment) float64 {
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1].EndUs - segs[0].StartUs
}
