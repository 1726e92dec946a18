package verify

import (
	"fmt"

	"astra/internal/enumerate"
)

// streamView is the per-stream program order the analyses reason about,
// derived from the schedule's issue order: streams[s] lists the indices in
// Ops of stream s's operations, first/last locate each unit's first and
// last kernel or copy, and events bounds the event ids in use.
type streamView struct {
	streams     [][]int
	first, last map[*enumerate.Unit]Pos
	events      int
}

func viewOf(s *Schedule) *streamView {
	n, units, events := 1, 0, s.NumEvents
	var prev *enumerate.Unit
	for _, op := range s.Ops {
		n = max(n, op.Stream+1)
		events = max(events, op.Event+1)
		if op.Unit != nil && op.Unit != prev {
			units++
		}
		prev = op.Unit
	}
	counts := make([]int, n)
	for _, op := range s.Ops {
		counts[op.Stream]++
	}
	v := &streamView{
		streams: make([][]int, n),
		first:   make(map[*enumerate.Unit]Pos, units),
		last:    make(map[*enumerate.Unit]Pos, units),
		events:  events,
	}
	backing := make([]int, len(s.Ops))
	for st, c := range counts {
		v.streams[st], backing = backing[:0:c], backing[c:]
	}
	for i, op := range s.Ops {
		pos := Pos{Stream: op.Stream, Index: len(v.streams[op.Stream])}
		v.streams[op.Stream] = append(v.streams[op.Stream], i)
		if op.Unit != nil && (op.Kind == OpKernel || op.Kind == OpCopy) {
			if _, ok := v.first[op.Unit]; !ok {
				v.first[op.Unit] = pos
			}
			v.last[op.Unit] = pos
		}
	}
	return v
}

// op returns the operation at a stream position.
func (v *streamView) op(s *Schedule, p Pos) *Op { return &s.Ops[v.streams[p.Stream][p.Index]] }

// hbResult holds the outcome of executing a schedule under FIFO
// stream semantics with vector clocks.
type hbResult struct {
	// post[s][i] is the vector clock immediately after op i of stream s
	// executed: post[s][i][t] counts the ops of stream t known (via program
	// order and record/wait edges) to have executed before that point.
	post [][][]int
	// deadlocked reports that execution stalled before draining every
	// stream; blocked describes the stuck waits.
	deadlocked bool
	blocked    []string
}

// simulate executes the schedule's per-stream view: each stream is a FIFO,
// a Wait op can only execute once the matching Record has, and everything
// else executes when it reaches the head of its stream. A stall with ops remaining is a
// synchronization deadlock — exactly the condition under which the real
// device would hang (cudaStreamWaitEvent on an event never recorded, or a
// wait cycle between streams).
func simulate(s *Schedule, v *streamView) *hbResult {
	nStreams := len(v.streams)
	res := &hbResult{post: make([][][]int, nStreams)}
	next := make([]int, nStreams)
	clock := make([][]int, nStreams)
	for i := range clock {
		clock[i] = make([]int, nStreams)
		res.post[i] = make([][]int, len(v.streams[i]))
	}
	recorded := make([][]int, v.events) // event -> clock snapshot at its record
	remaining := len(s.Ops)
	for remaining > 0 {
		progress := false
		for st := 0; st < nStreams; st++ {
			for next[st] < len(v.streams[st]) {
				op := v.op(s, Pos{Stream: st, Index: next[st]})
				if op.Kind == OpWait {
					snap := recorded[op.Event]
					if snap == nil {
						break // blocked: the event has not been recorded yet
					}
					for t, v := range snap {
						if v > clock[st][t] {
							clock[st][t] = v
						}
					}
				}
				clock[st][st]++
				snap := make([]int, nStreams)
				copy(snap, clock[st])
				res.post[st][next[st]] = snap
				if op.Kind == OpRecord {
					recorded[op.Event] = snap
				}
				next[st]++
				remaining--
				progress = true
			}
		}
		if !progress {
			res.deadlocked = true
			for st := 0; st < nStreams; st++ {
				if next[st] < len(v.streams[st]) {
					op := v.op(s, Pos{Stream: st, Index: next[st]})
					res.blocked = append(res.blocked, fmt.Sprintf("stream %d blocked at op %d (wait e%d)", st, next[st], op.Event))
				}
			}
			return res
		}
	}
	return res
}

// happensBefore reports whether op a is ordered before op b by program
// order and the record/wait synchronization edges.
func (h *hbResult) happensBefore(a, b Pos) bool {
	if b.Index >= len(h.post[b.Stream]) || h.post[b.Stream][b.Index] == nil {
		return false // b never executed (deadlock path)
	}
	return h.post[b.Stream][b.Index][a.Stream] >= a.Index+1
}
