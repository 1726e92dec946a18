package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one session or job share Job.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root
	Name   string        `json:"name"`
	Job    string        `json:"job"`
	Start  time.Duration `json:"start_ns"` // since the tracer's origin
	End    time.Duration `json:"end_ns"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths can call it unconditionally.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin)
}

// add records an already-measured span (serve-mix reconstructs its spans
// from event arrival times) and returns its id.
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return len(t.spans)
}

// get returns span id.
func (t *tracer) get(id int) *span { return &t.spans[id-1] }

// selfTimes returns each span's duration minus the part of its interval its
// children cover (overlapping children are merged, not double-counted).
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans)+1)
	for i := range t.spans {
		children[t.spans[i].Parent] = append(children[t.spans[i].Parent], t.spans[i].ID)
	}
	self := make([]time.Duration, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]-1].Start < t.spans[kids[b]-1].Start })
		covered := time.Duration(0)
		curEnd := s.Start // end of the children's union so far
		for _, k := range kids {
			ks, ke := max(t.spans[k-1].Start, curEnd), min(t.spans[k-1].End, s.End)
			if ke > ks {
				covered += ke - ks
				curEnd = ke
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// ledger sums self time by span name over every span that descends from a
// root span with the given name, optionally only spans of one job. It
// returns seconds per row and the roots' total duration in seconds; a
// root's own self time is the part no layer call covers, so it is left to
// the "other" row that printLedger derives.
func (t *tracer) ledger(root, job string) (rows map[string]float64, total float64) {
	self := t.selfTimes()
	rows = map[string]float64{}
	under := make([]bool, len(t.spans)+1)
	for i := range t.spans { // parents precede children: ids grow in begin order
		s := &t.spans[i]
		switch {
		case s.Parent == 0 && s.Name == root && (job == "" || s.Job == job):
			under[s.ID] = true
			total += s.dur().Seconds()
		case s.Parent != 0 && under[s.Parent]:
			under[s.ID] = true
			rows[s.Name] += self[s.ID].Seconds()
		}
	}
	return rows, total
}

// write saves the spans as JSON lines under dir, one file per workload.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := writeSpans(w, t.spans); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// printLedger prints rows sorted by time with their share of total, plus
// the "other" row that reconciles them with total.
func printLedger(w io.Writer, title string, rows map[string]float64, total float64) {
	names := make([]string, 0, len(rows))
	accounted := 0.0
	for n, v := range rows {
		names = append(names, n)
		accounted += v
	}
	sort.Slice(names, func(a, b int) bool { return rows[names[a]] > rows[names[b]] })
	fmt.Fprintf(w, "ledger %s: total %.3f s\n", title, total)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %9.4f s %6.2f%%\n", n, rows[n], pct(rows[n], total))
	}
	fmt.Fprintf(w, "  %-28s %9.4f s %6.2f%%\n", "other", total-accounted, pct(total-accounted, total))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
