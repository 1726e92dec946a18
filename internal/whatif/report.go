package whatif

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// topBlame returns the class with the largest critical-path blame.
func topBlame(blame map[string]float64) string {
	top, best := "", 0.0
	for _, c := range sortedBlameKeys(blame) {
		if v := blame[c]; v > best {
			top, best = c, v
		}
	}
	return top
}

func sortedBlameKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // lint:ok map-range sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePredictions renders a scenario matrix as a fixed-order text table:
// one row per scenario in input order, headline wired-batch numbers plus
// the predicted critical path's dominant class.
func WritePredictions(w io.Writer, preds []*Prediction) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SCENARIO\tRECORDED_US\tPREDICTED_US\tSPEEDUP\tTOP_BLAME")
	for _, p := range preds {
		if p == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.3fx\t%s\n",
			p.Scenario.Name, p.RecordedWiredUs, p.PredictedWiredUs, p.SpeedupX, topBlame(p.Blame))
	}
	tw.Flush()
}

// WritePrediction renders one scenario in detail: headline numbers, the
// predicted per-class blame, and the run-level diff attribution.
func WritePrediction(w io.Writer, p *Prediction) {
	fmt.Fprintf(w, "scenario: %s\n", p.Scenario.Name)
	fmt.Fprintf(w, "recorded wired batch: %.2f us\n", p.RecordedWiredUs)
	fmt.Fprintf(w, "predicted wired batch: %.2f us (%.3fx)\n", p.PredictedWiredUs, p.SpeedupX)
	fmt.Fprintf(w, "recorded run total: %.2f us -> predicted %.2f us over %d batches\n",
		p.RecordedTotalUs, p.PredictedTotalUs, len(p.Batches))
	if len(p.Blame) > 0 {
		fmt.Fprintln(w, "predicted critical-path blame:")
		for _, c := range sortedBlameKeys(p.Blame) {
			fmt.Fprintf(w, "  %-10s %12.2f us\n", c, p.Blame[c])
		}
	}
	if p.Diff != nil && p.Diff.TopClass != "" {
		fmt.Fprintf(w, "blame shift: %s (share %.2f of the aligned delta)\n",
			p.Diff.TopClass, p.Diff.TopClassShare)
	}
}

// WriteCheckReport renders a validation run: the base reproduction line,
// one row per cell, and any failures.
func WriteCheckReport(w io.Writer, r *CheckReport) {
	fmt.Fprintf(w, "model: %s\n", r.Model)
	fmt.Fprintf(w, "base wired batch: recorded %.2f us, re-simulated %.2f us\n",
		r.BaseRecordedUs, r.BaseSimulatedUs)
	fmt.Fprintf(w, "tolerance: %.2f%%\n", r.TolerancePct)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SCENARIO\tWORKERS\tFABRIC\tPREDICTED_US\tSIMULATED_US\tERR%\tRESULT")
	for _, c := range r.Cells {
		result := "PASS"
		if !c.Pass {
			result = "FAIL"
		}
		fabric := c.Fabric
		if fabric == "" {
			fabric = "-"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.2f\t%.2f\t%.3f\t%s\n",
			c.Scenario, c.Workers, fabric, c.PredictedUs, c.SimulatedUs, c.ErrPct, result)
	}
	tw.Flush()
	if len(r.Failures) > 0 {
		fmt.Fprintf(w, "%d failure(s):\n", len(r.Failures))
		for _, f := range r.Failures {
			fmt.Fprintf(w, "  %s\n", f)
		}
	} else {
		fmt.Fprintf(w, "all %d cells within tolerance\n", len(r.Cells))
	}
}
