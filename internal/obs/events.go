package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"astra/internal/spec"
)

// TrialEvent is one structured record of the session event log: exactly one
// per mini-batch, whether an exploration trial or a wired batch. It is the
// machine-readable form of Table 7's convergence data — what the explorer
// tried, what it measured, and what the batch cost.
type TrialEvent struct {
	// Batch is the 1-based mini-batch number within the session.
	Batch int `json:"batch"`
	// Trial is the 1-based exploration trial number; for wired batches it
	// holds the final trial count.
	Trial int `json:"trial"`
	// Phase is "explore" while the explorer is active, "wired" afterwards.
	Phase string `json:"phase"`
	// StartUs is the batch's start on the session-wide simulated clock.
	StartUs float64 `json:"start_us"`
	// BatchUs is the simulated duration of the mini-batch.
	BatchUs float64 `json:"batch_us"`
	// Kernels and Events count kernel launches and cudaEvent operations.
	Kernels int `json:"kernels"`
	Events  int `json:"events"`
	// ProfOverheadUs is the CPU cost of profiling-only events (§6.4).
	ProfOverheadUs float64 `json:"profiling_overhead_us"`
	// HitRate is the profile index hit rate after the batch.
	HitRate float64 `json:"profile_hit_rate"`
	// FrozenVars/TotalVars track exploration convergence.
	FrozenVars int `json:"frozen_vars"`
	TotalVars  int `json:"total_vars"`
	// Bindings maps adaptive-variable IDs to the choice labels this batch
	// ran with (captured before the explorer advanced).
	Bindings map[string]string `json:"bindings,omitempty"`
	// Metrics holds the per-variable profiled values fed to the explorer.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Drift marks the wired batch on which the drift watchdog fired and
	// thawed the explorer back into exploration.
	Drift bool `json:"drift,omitempty"`
	// CommUs is the link-busy time of a multi-GPU batch's gradient
	// exchange, and WorkerUs the per-worker batch times whose max is
	// BatchUs.
	CommUs   float64   `json:"comm_us,omitempty"`
	WorkerUs []float64 `json:"worker_us,omitempty"`
	// VerifyFindings lists plan-verifier findings first surfaced by this
	// batch's configuration (rendered one per line); empty when the
	// binding verified clean or was already checked.
	VerifyFindings []string `json:"verify_findings,omitempty"`
	// Froze lists the adaptive-variable IDs the explorer froze during this
	// batch, sorted; Reexplorations counts watchdog-triggered re-explore
	// rounds completed so far. Together with FrozenVars/TotalVars these
	// drive the analyzer's convergence report.
	Froze          []string `json:"froze,omitempty"`
	Reexplorations int      `json:"reexplorations,omitempty"`
	// Cost-model prior quality, cumulative as of this batch (all zero when
	// the session ran without a prior): PriorHits counts freezes whose
	// measured best was the prior's top-ranked candidate, PriorMisses the
	// rest, PriorPruned candidates skipped unmeasured, and PriorRankInv the
	// summed rank positions of measured bests on misses (0 = perfect
	// ranking). See docs/COSTMODEL.md.
	PriorHits    int `json:"prior_hits,omitempty"`
	PriorMisses  int `json:"prior_misses,omitempty"`
	PriorPruned  int `json:"prior_pruned,omitempty"`
	PriorRankInv int `json:"prior_rank_inversions,omitempty"`
	// Profiles carries the full per-worker kernel timelines of the batch
	// (one BatchProfile per data-parallel rank). This is what
	// internal/analyze consumes to rebuild the dependency graph, so the
	// record is self-contained: an event log alone suffices to answer
	// "where did this batch's time go".
	Profiles []BatchProfile `json:"profiles,omitempty"`

	// Spec identifies the run, stamped on every record by the wire session
	// so a log alone suffices to rebuild the session (astra-whatif -check).
	// Its fields flatten into the record. Older logs omit workers on
	// single-GPU runs; readers treat 0 like 1.
	spec.Spec
}

// EventLog writes TrialEvents as JSON Lines. The zero sink is valid: Emit
// is a no-op until SetSink attaches a writer, so instrumented code never
// needs to branch on whether an event log was requested.
type EventLog struct {
	mu    sync.Mutex
	enc   *json.Encoder
	count int
}

// NewEventLog returns a log writing to w (nil for a disabled log).
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{}
	l.SetSink(w)
	return l
}

// SetSink attaches (or detaches, with nil) the output writer.
func (l *EventLog) SetSink(w io.Writer) {
	l.mu.Lock()
	if w == nil {
		l.enc = nil
	} else {
		l.enc = json.NewEncoder(w)
	}
	l.mu.Unlock()
}

// Enabled reports whether a sink is attached.
func (l *EventLog) Enabled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enc != nil
}

// Emit appends one record. Without a sink it is a no-op.
func (l *EventLog) Emit(ev TrialEvent) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.enc == nil {
		return nil
	}
	l.count++
	return l.enc.Encode(&ev)
}

// Count returns the number of records emitted to the current sink.
func (l *EventLog) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// ReadTrialEvents parses a JSONL event log back into records — the other
// half of the round trip tests rely on.
func ReadTrialEvents(r io.Reader) ([]TrialEvent, error) {
	var out []TrialEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev TrialEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("obs: event log line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: event log: %w", err)
	}
	return out, nil
}
