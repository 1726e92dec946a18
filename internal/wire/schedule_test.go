package wire

import (
	"testing"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/verify"
)

func hasCheck(r *verify.Report, id string) bool {
	for _, c := range r.Checks() {
		if c == id {
			return true
		}
	}
	return false
}

// bindStreamsLast drives every stream variable to its last (most
// spread-out) choice so the schedule uses several streams.
func bindStreamsLast(p *enumerate.Plan) {
	for _, se := range p.Supers {
		for _, ep := range se.Epochs {
			for _, cls := range ep.Classes {
				if v := p.StreamVars[cls]; v != nil {
					v.SetChoice(len(v.Labels) - 1)
				}
			}
		}
	}
}

// assertIssued checks that the device ran exactly the schedule's kernels
// and copies, in issue order, on their streams.
func assertIssued(t *testing.T, dev *gpusim.Device, sched *verify.Schedule) {
	t.Helper()
	recs := dev.Records()
	n := 0
	for _, op := range sched.Ops {
		if op.Kind != verify.OpKernel && op.Kind != verify.OpCopy {
			continue
		}
		if n >= len(recs) {
			t.Fatalf("device ran %d kernels, schedule has more", len(recs))
		}
		if recs[n].Name != op.Kernel.Name || recs[n].Stream != op.Stream {
			t.Fatalf("kernel %d: device ran %s on stream %d, schedule issues %s on stream %d",
				n, recs[n].Name, recs[n].Stream, op.Kernel.Name, op.Stream)
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("device ran %d kernels, schedule has %d", len(recs), n)
	}
}

// TestVerifierChecksTheExecutedSchedule ties the verifier to the runner:
// the schedule a session checks is the object every worker executes, so a
// wait dropped from it both surfaces as a race and disappears from what the
// device runs.
func TestVerifierChecksTheExecutedSchedule(t *testing.T) {
	s := commSession(t, 2, true, func(cfg *SessionConfig) {
		cfg.Options = enumerate.PresetOptions(enumerate.PresetAll)
		cfg.Options.CommAdapt = true
		cfg.Options.Workers = 2
	})
	bindStreamsLast(s.Plan)
	s.Step() // verifies and runs the lowered schedule
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	bindStreamsLast(s.Plan) // the explorer advanced; return to a multi-stream binding
	sched := s.Runner.schedule()
	if r := verify.CheckSchedule(s.Plan, sched, "clean"); !r.OK() {
		t.Fatalf("clean schedule has findings: %v", r.Findings)
	}
	s.Runner.RunBatch(nil, nil)
	assertIssued(t, s.Runner.Dev, sched)

	dropped := false
	for i, op := range sched.Ops {
		if op.Kind != verify.OpWait {
			continue
		}
		orig, origStart := sched.Ops, sched.SuperStart
		sched.Ops = append(append([]verify.Op(nil), orig[:i]...), orig[i+1:]...)
		sched.SuperStart = append([]int(nil), origStart...)
		for k := range sched.SuperStart {
			if sched.SuperStart[k] > i {
				sched.SuperStart[k]--
			}
		}
		if hasCheck(verify.CheckSchedule(s.Plan, sched, "mutant"), "sched.race") {
			dropped = true
			break
		}
		sched.Ops, sched.SuperStart = orig, origStart
	}
	if !dropped {
		t.Fatal("no dropped wait produced a sched.race finding")
	}
	if s.Runner.schedule() != sched {
		t.Fatal("runner re-lowered although the bindings did not change")
	}
	s.Runner.RunBatch(nil, nil)
	assertIssued(t, s.Runner.Dev, sched)
	for _, p := range s.Peers {
		p.run(sched, nil, nil)
		assertIssued(t, p.Dev, sched)
	}
}

// TestCommEnablementFollowsRunnerConfig: the schedule exchanges gradients
// exactly when the runner's comm configuration is Enabled — two or more
// workers and a fabric with bandwidth.
func TestCommEnablementFollowsRunnerConfig(t *testing.T) {
	for _, tc := range []struct {
		name       string
		workers    int
		bytesPerUs float64
		want       bool
	}{
		{"one worker", 1, 11000, false},
		{"no fabric bandwidth", 2, 0, false},
		{"two workers", 2, 11000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := commSession(t, tc.workers, true, func(cfg *SessionConfig) {
				cfg.Comm.BytesPerUs = tc.bytesPerUs
			})
			sched := s.Runner.schedule()
			if got := sched.CommStream >= 0 && len(sched.Buckets) > 0; got != tc.want {
				t.Fatalf("schedule exchange = %v (comm stream %d, %d buckets), want %v",
					got, sched.CommStream, len(sched.Buckets), tc.want)
			}
			res := s.Step()
			if got := res.CommKernels > 0; got != tc.want {
				t.Fatalf("runner issued %d comm kernels, want exchange %v", res.CommKernels, tc.want)
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMalformedLabelsPanic: a chunk or bucket label that does not parse
// stops lowering, for the verifier and the runner alike.
func TestMalformedLabelsPanic(t *testing.T) {
	for _, tc := range []struct {
		name, label string
		pick        func(p *enumerate.Plan) []string
	}{
		{"chunk not a number", "x", chunkLabels},
		{"chunk zero", "0", chunkLabels},
		{"bucket not a number", "x", func(p *enumerate.Plan) []string { return p.CommBucketVar.Labels }},
		{"bucket negative", "-4", func(p *enumerate.Plan) []string { return p.CommBucketVar.Labels }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := commSession(t, 2, true, nil)
			tc.pick(s.Plan)[0] = tc.label
			if !panics(func() { verify.CheckConfig(s.Plan, s.Runner.Cfg.spec()) }) {
				t.Errorf("verify.CheckConfig accepted label %q", tc.label)
			}
			if !panics(func() { s.Runner.RunBatch(nil, nil) }) {
				t.Errorf("Runner.RunBatch accepted label %q", tc.label)
			}
		})
	}
}

func chunkLabels(p *enumerate.Plan) []string {
	for _, grp := range p.Groups {
		if v := p.ChunkVars[grp]; v != nil {
			return v.Labels
		}
	}
	panic("plan has no chunk variable")
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestUndispatchedProducerRecordsOnTrigger: a bucket that fires before one
// of its producing units has dispatched gets that producer's readiness
// record on the trigger unit's stream, and the verifier reports the
// exchange launching before the producer completes.
func TestUndispatchedProducerRecordsOnTrigger(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reorder   bool
		wantOrder bool // whether comm.order fires
	}{
		{"dispatch order", false, false},
		{"producer after trigger", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build, _ := models.Get("sublstm")
			m := build(models.TinyConfig("sublstm", 2))
			opts := enumerate.PresetOptions(enumerate.PresetAll)
			opts.Workers = 2
			plan := enumerate.Enumerate(m.G, opts)
			bindStreamsLast(plan)
			if tc.reorder {
				// Move the first gradient last: the single bucket now
				// fires after the earliest producer, before the others.
				plan.Grads = append(plan.Grads[1:], plan.Grads[0])
			}
			r := NewRunner(plan, gpusim.NewDevice(gpusim.P100()),
				RunnerConfig{PerOpCPUUs: 2, Comm: CommConfig{Workers: 2, BytesPerUs: 11000, LatencyUs: 8}})
			sched := r.schedule()
			if len(sched.Buckets) != 1 {
				t.Fatalf("%d buckets, want 1", len(sched.Buckets))
			}

			// Each unit's stream, the trigger's position, and the streams
			// of the readiness records issued right after it.
			stream := map[*enumerate.Unit]int{}
			order := map[*enumerate.Unit]int{}
			firstStep := -1
			for i, op := range sched.Ops {
				if op.Unit != nil {
					if _, ok := order[op.Unit]; !ok {
						order[op.Unit] = len(order)
						stream[op.Unit] = op.Stream
					}
				}
				if op.Kind == verify.OpKernel && op.Bucket == 0 {
					firstStep = i
					break
				}
			}
			b := sched.Buckets[0]
			trigger := b.Units[len(b.Units)-1]
			var got []int
			for i := firstStep - 1; i >= 0 && sched.Ops[i].Unit == nil; i-- {
				if sched.Ops[i].Kind == verify.OpRecord {
					got = append([]int{sched.Ops[i].Stream}, got...)
				}
			}
			var want []int
			seen := map[int]bool{}
			for _, u := range b.Units {
				s, dispatched := stream[u]
				if !dispatched || order[u] > order[trigger] {
					s = stream[trigger]
				}
				if !seen[s] {
					seen[s] = true
					want = append(want, s)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("readiness records on streams %v, want %v", got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("readiness records on streams %v, want %v", got, want)
				}
			}
			if tc.reorder && len(want) != 1 {
				t.Fatalf("trigger is the earliest producer, yet records cover %v", want)
			}
			if got := hasCheck(verify.CheckSchedule(plan, sched, tc.name), "comm.order"); got != tc.wantOrder {
				t.Fatalf("comm.order reported = %v, want %v", got, tc.wantOrder)
			}
			r.RunBatch(nil, nil)
			assertIssued(t, r.Dev, sched)
		})
	}
}
