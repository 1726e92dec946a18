// Package wire implements Astra's runtime half: the custom-wirer (§4.7).
// For the current binding of every adaptive variable it executes the
// schedule verify.Lower produced — fused GEMM chunks, gather copies for
// non-contiguous operands, multi-stream assignment with event
// synchronization, super-epoch barriers, the gradient exchange — on the
// simulated GPU, the same schedule the plan verifier checked, while wrapping
// every region of interest in cudaEvent pairs for fine-grained profiling
// (§5.2). After the batch it extracts one metric per adaptive variable and
// hands them to the explorer.
package wire

import (
	"fmt"

	"astra/internal/adapt"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/graph"
	"astra/internal/obs"
	"astra/internal/verify"
)

// RunnerConfig tunes the dispatcher.
type RunnerConfig struct {
	// PerOpCPUUs is the dispatcher's own CPU cost per kernel launch on top
	// of the driver launch overhead. Astra interposes below the framework
	// (§5.1), so this is small compared to an eager framework's per-op
	// cost.
	PerOpCPUUs float64
	// MaxFusion pins every fusion group at its maximal chunk when the
	// plan has no chunk variables — the static-fusion policy used to model
	// XLA (package baselines).
	MaxFusion bool
	// EmbeddingHostTransfer forces a host round-trip per embedding lookup
	// (XLA's embedding pathology, §6.6).
	EmbeddingHostTransfer bool
	// Profile enables the cudaEvent instrumentation. Astra keeps it
	// always on (overhead <0.5%, §6.4); baselines run without it.
	Profile bool
	// Comm configures event-level data-parallel gradient exchange; the
	// zero value disables it (single-worker sessions).
	Comm CommConfig
}

// BatchResult reports one dispatched mini-batch.
type BatchResult struct {
	// Metrics maps adaptive-variable IDs to their profiled values (µs).
	Metrics map[string]float64
	// TotalUs is the wall-clock time of the mini-batch (CPU timeline,
	// which includes waiting for the device at the end).
	TotalUs float64
	// Kernels is the number of kernels launched.
	Kernels int
	// Events is the number of cudaEvents recorded or waited on,
	// including cross-stream synchronization (each costs 0.2 µs of CPU).
	Events int
	// ProfEvents counts the events recorded purely for profiling.
	ProfEvents int
	// CommKernels counts ring all-reduce step kernels issued, and CommUs
	// sums their device time (link-busy time). CommSpanUs is the interval
	// from the first comm kernel's start to the last one's end — with a
	// single bucket on the main stream this is the serialized exchange
	// time the analytic RingAllReduceUs formula models.
	CommKernels int
	CommUs      float64
	CommSpanUs  float64
	// WorkerUs lists every worker's batch time when the session steps a
	// multi-worker cluster; TotalUs is then their max.
	WorkerUs []float64
	// Env holds the computed values when value evaluation was requested.
	Env graph.Env
}

// ProfilingOverheadUs returns the CPU time spent on profiling-only event
// bookkeeping (0.2 µs per event, matching gpusim's accounting). Events that
// exist to synchronize streams are schedule cost, not profiling cost.
func (r *BatchResult) ProfilingOverheadUs() float64 { return 0.2 * float64(r.ProfEvents) }

// Runner dispatches mini-batches for a plan.
type Runner struct {
	Plan *enumerate.Plan
	Dev  *gpusim.Device
	Cfg  RunnerConfig

	// obs, when attached, receives per-unit dispatch spans on the CPU
	// timeline and the per-batch wirer span; traceOffsetUs places each
	// batch's device-relative clock onto the session-wide clock.
	// traceDetail gates the per-unit spans (the session bounds how many
	// batches get kernel-level detail so long traces stay loadable).
	obs           *obs.Telemetry
	traceOffsetUs float64
	traceDetail   bool

	// sched is the one cached lowering: the schedule for the choice vector
	// key (one entry per variable of vars) under keySpec.
	sched   *verify.Schedule
	key     []int
	keySpec verify.Spec
	vars    []*adapt.Var

	// st is the reusable per-batch dispatch state: RunBatch re-slices its
	// scratch slices instead of reallocating them every mini-batch.
	st dispatchState
}

// Instrument attaches a telemetry bundle; subsequent batches emit dispatch
// spans onto its tracer.
func (r *Runner) Instrument(tel *obs.Telemetry) {
	r.obs = tel
	tel.Trace.SetProcessName(obs.PIDDispatch, "cpu dispatch")
	tel.Trace.SetThreadName(obs.PIDDispatch, obs.TIDBatches, "session / trials")
	tel.Trace.SetThreadName(obs.PIDDispatch, obs.TIDWirer, "wirer dispatch")
}

// SetTraceOffset sets the session-clock offset applied to the next batch's
// spans (the session's clock at the batch's start) and whether the batch
// gets per-unit dispatch detail.
func (r *Runner) SetTraceOffset(us float64, detail bool) {
	r.traceOffsetUs = us
	r.traceDetail = detail
}

// NewRunner builds a runner and sizes the device's stream set. With comm
// enabled, one extra stream beyond the compute streams is reserved for
// communication kernels.
func NewRunner(plan *enumerate.Plan, dev *gpusim.Device, cfg RunnerConfig) *Runner {
	n := verify.ComputeStreams(plan)
	if cfg.Comm.Enabled() {
		n++
	}
	dev.EnsureStreams(n)
	return &Runner{Plan: plan, Dev: dev, Cfg: cfg}
}

// spec derives the lowering spec from the runner configuration; it is the
// only place a RunnerConfig becomes a verify.Spec. A comm configuration
// Enabled rejects lowers without a gradient exchange.
func (c RunnerConfig) spec() verify.Spec {
	s := verify.Spec{MaxFusion: c.MaxFusion}
	if c.Comm.Enabled() {
		s.Workers = c.Comm.Workers
		s.BucketKB = c.Comm.DefaultBucketKB
		s.Placement = c.Comm.DefaultPlacement
	}
	return s
}

// schedule returns the schedule for the plan's current bindings. It lowers
// only when the choice vector or the configuration changed since the
// previous call, so steady-state wired batches replay one schedule.
func (r *Runner) schedule() *verify.Schedule {
	spec := r.Cfg.spec()
	if r.sched != nil && spec == r.keySpec && r.bindingUnchanged() {
		return r.sched
	}
	if r.vars == nil && r.Plan.Tree != nil {
		r.vars = r.Plan.Tree.Vars()
	}
	r.key = r.key[:0]
	for _, v := range r.vars {
		r.key = append(r.key, v.Current())
	}
	r.keySpec = spec
	r.sched = verify.Lower(r.Plan, spec)
	return r.sched
}

func (r *Runner) bindingUnchanged() bool {
	for i, v := range r.vars {
		if r.key[i] != v.Current() {
			return false
		}
	}
	return true
}

// dispatchState carries the per-batch bookkeeping.
type dispatchState struct {
	env        graph.Env
	evalValues bool
	kernels    int
	events     int // all events+waits (sync bookkeeping included)
	profEvents int // events recorded purely for profiling
	// ev maps the schedule's event ids to this batch's device events.
	ev []*gpusim.Event
	// region events for metric extraction
	spans     []unitSpan
	seStart   []*gpusim.Event // by super-epoch index
	epochEnds []epochEnd
	span      [2]*gpusim.Event
}

// unitSpan is the profiling event pair around one unit.
type unitSpan struct {
	unit       *enumerate.Unit
	start, end *gpusim.Event
}

// epochEnd is one of an epoch's end records, kept when the epoch's
// completion time is being measured.
type epochEnd struct {
	epoch *enumerate.Epoch
	super int
	ev    *gpusim.Event
}

// resetState clears the runner's reusable dispatch state for a new batch;
// scratch slices keep their capacity from batch to batch.
func (r *Runner) resetState(sched *verify.Schedule) *dispatchState {
	st := &r.st
	st.env = nil
	st.evalValues = false
	st.kernels, st.events, st.profEvents = 0, 0, 0
	st.ev = resize(st.ev, sched.NumEvents)
	st.seStart = resize(st.seStart, len(r.Plan.Supers))
	st.spans = st.spans[:0]
	st.epochEnds = st.epochEnds[:0]
	st.span = [2]*gpusim.Event{}
	return st
}

// resize returns s with length n and every element nil.
func resize(s []*gpusim.Event, n int) []*gpusim.Event {
	if cap(s) < n {
		return make([]*gpusim.Event, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RunBatch dispatches one mini-batch with the plan's current variable
// bindings. When inputs is non-nil the values are computed through the CPU
// oracle in dispatch order (catching any dependency-violating schedule);
// otherwise only timing is simulated.
func (r *Runner) RunBatch(inputs graph.Env, params graph.Env) BatchResult {
	return r.run(r.schedule(), inputs, params)
}

// run executes one lowered schedule as a mini-batch.
func (r *Runner) run(sched *verify.Schedule, inputs graph.Env, params graph.Env) BatchResult {
	dev := r.Dev
	dev.Reset()
	st := r.resetState(sched)
	st.evalValues = inputs != nil
	if st.evalValues {
		st.env = make(graph.Env, len(r.Plan.G.Values))
		for _, v := range r.Plan.G.Inputs {
			t, ok := inputs[v]
			if !ok {
				panic(fmt.Sprintf("wire: unbound input %s (%s)", v, v.Name))
			}
			st.env[v] = t
		}
		for _, v := range r.Plan.G.Values {
			if v.ConstData == nil {
				continue
			}
			if params != nil {
				if t, ok := params[v]; ok {
					st.env[v] = t
					continue
				}
			}
			st.env[v] = v.ConstData
		}
	}

	if r.Cfg.Profile {
		st.span[0] = r.recordProfEvent(st, 0)
	}
	r.execute(st, sched)
	if r.Cfg.Profile {
		st.span[1] = r.recordProfEvent(st, 0)
	}
	dev.Synchronize()

	res := BatchResult{
		Metrics:    map[string]float64{},
		TotalUs:    dev.CPUTimeUs(),
		Kernels:    st.kernels,
		Events:     st.events,
		ProfEvents: st.profEvents,
		Env:        st.env,
	}
	if sched.CommStream >= 0 {
		commStats(dev.Records(), &res)
	}
	if r.Cfg.Profile {
		r.extractMetrics(st, &res)
	}
	if r.obs != nil {
		r.obs.Trace.AddSpan(obs.PIDDispatch, obs.TIDWirer, "dispatch batch", "wirer",
			r.traceOffsetUs, res.TotalUs, map[string]interface{}{
				"kernels": res.Kernels,
				"events":  res.Events,
			})
	}
	return res
}

// execute issues the schedule's ops in order. On top of them it adds only
// what no happens-before edge depends on: profiling record pairs around
// units whose variables still need a measurement, the super-epoch start
// records, the CPU-oracle evaluation at each unit's end, the embedding
// host transfer of the XLA baseline, and the ring steps' durations.
//
//astra:hotpath
func (r *Runner) execute(st *dispatchState, sched *verify.Schedule) {
	ops := sched.Ops
	next, super := 0, -1
	var u *enumerate.Unit
	var start *gpusim.Event
	t0 := 0.0
	for i := range ops {
		op := &ops[i]
		for next < len(sched.SuperStart) && sched.SuperStart[next] == i {
			super = next
			r.openSuper(st, super)
			next++
		}
		if op.Unit != nil && op.Unit != u {
			u, start, t0 = op.Unit, nil, r.Dev.CPUTimeUs()
			if r.profiled(u) {
				start = r.recordProfEvent(st, op.Stream)
			}
		}
		switch op.Kind {
		case verify.OpKernel, verify.OpCopy:
			spec := op.Kernel
			if op.Bucket >= 0 {
				spec.TileTimeUs = r.ringStepUs(sched.Buckets[op.Bucket].Bytes)
			} else if r.Cfg.EmbeddingHostTransfer && u.Kind == enumerate.UnitSingle {
				r.hostTransfer(u.Nodes[0], op.Stream)
			}
			r.launch(st, op.Stream, spec)
		case verify.OpRecord:
			ev := r.recordEvent(st, op.Stream)
			st.ev[op.Event] = ev
			if op.Epoch != nil && super >= 0 && st.seStart[super] != nil && r.Plan.EpochVarID[op.Epoch] != "" {
				st.epochEnds = append(st.epochEnds, epochEnd{epoch: op.Epoch, super: super, ev: ev})
			}
		case verify.OpWait:
			r.Dev.WaitEventTag(op.Stream, st.ev[op.Event], op.Tag)
			st.events++
		}
		if u != nil && (i+1 == len(ops) || ops[i+1].Unit != u) {
			r.closeUnit(st, u, op.Stream, start, t0)
			u = nil
		}
	}
}

// openSuper marks the start of super-epoch k for the epoch completion
// metrics, when one of its epoch variables needs a measurement this trial.
func (r *Runner) openSuper(st *dispatchState, k int) {
	if !r.Cfg.Profile || verify.ComputeStreams(r.Plan) < 2 {
		return
	}
	for _, ep := range r.Plan.Supers[k].Epochs {
		if v := r.Plan.EpochVars[ep]; v != nil && v.Recording() {
			st.seStart[k] = r.recordProfEvent(st, 0)
			return
		}
	}
}

// profiled reports whether the unit gets a profiling event pair. Pairs wrap
// only regions whose adaptive variables still need a measurement this
// trial: converged regions are never re-measured (§4.1 — one measurement
// suffices), which is what keeps the always-on instrumentation under the
// 0.5% budget of §6.4.
func (r *Runner) profiled(u *enumerate.Unit) bool {
	if !r.Cfg.Profile {
		return false
	}
	if v := r.Plan.KernelVars[u]; v != nil && v.Recording() {
		return true
	}
	if u.Kind == enumerate.UnitGEMMGroup {
		if v := r.Plan.ChunkVars[u.Group]; v != nil && v.Recording() {
			return true
		}
	}
	return false
}

// closeUnit finishes a unit after its last op: the CPU oracle evaluates its
// nodes, the profiling pair closes, and a detail batch gets its span.
func (r *Runner) closeUnit(st *dispatchState, u *enumerate.Unit, stream int, start *gpusim.Event, t0 float64) {
	for _, n := range u.Nodes {
		r.eval(st, n)
	}
	if start != nil {
		st.spans = append(st.spans, unitSpan{unit: u, start: start, end: r.recordProfEvent(st, stream)})
	}
	if r.obs != nil && r.traceDetail {
		r.obs.Trace.AddSpan(obs.PIDDispatch, obs.TIDWirer, unitLabel(u), "dispatch",
			r.traceOffsetUs+t0, r.Dev.CPUTimeUs()-t0, map[string]interface{}{"stream": stream})
	}
}

// hostTransfer models XLA's embedding pathology: each lookup bounces
// through the host (§6.6) instead of staying on the device.
func (r *Runner) hostTransfer(n *graph.Node, stream int) {
	if n.Op == graph.OpLookup || n.Op == graph.OpLookupGrad {
		r.Dev.HostTransfer(stream, int64(n.Out.Shape.NumElements())*8)
	}
}

// recordEvent places a synchronization event and counts it.
//
//astra:hotpath
func (r *Runner) recordEvent(st *dispatchState, stream int) *gpusim.Event {
	st.events++
	return r.Dev.RecordEvent(stream)
}

// recordProfEvent marks an event as pure profiling instrumentation; its
// cost is what the §6.4 "<0.5% overhead" claim is about. Synchronization
// events exist for correctness regardless of profiling.
//
//astra:hotpath
func (r *Runner) recordProfEvent(st *dispatchState, stream int) *gpusim.Event {
	st.profEvents++
	return r.recordEvent(st, stream)
}

// unitLabel names a schedule unit for the dispatch trace track.
func unitLabel(u *enumerate.Unit) string {
	switch u.Kind {
	case enumerate.UnitGEMMGroup:
		return "group " + u.Group.ID
	case enumerate.UnitEWChain:
		return fmt.Sprintf("ew-chain[%d]", len(u.Nodes))
	default:
		return u.Nodes[0].Op.String()
	}
}

// launch forwards one kernel spec to the device and counts it.
//
//astra:hotpath
func (r *Runner) launch(st *dispatchState, stream int, spec gpusim.KernelSpec) {
	r.Dev.AdvanceCPU(r.Cfg.PerOpCPUUs)
	r.Dev.Launch(stream, spec)
	st.kernels++
}

// eval computes a node's value on the CPU oracle, materializing any view
// transposes its inputs read through.
//
//astra:hotpath
func (r *Runner) eval(st *dispatchState, n *graph.Node) {
	if !st.evalValues {
		return
	}
	for _, in := range n.Inputs {
		if _, ok := st.env[in]; ok {
			continue
		}
		p := in.Producer
		if p != nil && p.Op == graph.OpTranspose {
			graph.EvalNode(p, st.env)
			continue
		}
		panic(fmt.Sprintf("wire: schedule violates dependencies: %s needs %s", n, in))
	}
	graph.EvalNode(n, st.env)
}

// extractMetrics turns the recorded event pairs into the per-variable
// metrics the explorer observes (§4.7): per-group times for chunk and
// library variables, per-epoch completion times for the stream composites,
// and the end-to-end batch time for the allocation policy.
func (r *Runner) extractMetrics(st *dispatchState, res *BatchResult) {
	for _, sp := range st.spans {
		t := gpusim.Elapsed(sp.start, sp.end)
		if sp.unit.Kind == enumerate.UnitGEMMGroup {
			if v := r.Plan.ChunkVars[sp.unit.Group]; v != nil {
				res.Metrics[v.ID] = t
			}
		}
		if v := r.Plan.KernelVars[sp.unit]; v != nil {
			res.Metrics[v.ID] = t
		}
	}
	// An epoch completes when the last of its streams does.
	for _, e := range st.epochEnds {
		id := r.Plan.EpochVarID[e.epoch]
		d := e.ev.TimeUs() - st.seStart[e.super].TimeUs()
		if prev, ok := res.Metrics[id]; !ok || d > prev {
			res.Metrics[id] = d
		}
	}
	// Class variables inside the epoch share the epoch metric: the
	// composite exhaustive variable is the one recorded, but the explorer
	// may also attribute to leaves when epochs are tiny.
	for _, e := range st.epochEnds {
		for _, cls := range e.epoch.Classes {
			if v := r.Plan.StreamVars[cls]; v != nil {
				res.Metrics[v.ID] = res.Metrics[r.Plan.EpochVarID[e.epoch]]
			}
		}
	}
	if st.span[0] != nil && st.span[1] != nil {
		total := gpusim.Elapsed(st.span[0], st.span[1])
		if r.Plan.AllocVar != nil {
			res.Metrics[r.Plan.AllocVar.ID] = total
		}
		// The comm variables are judged end-to-end: overlap quality shows
		// up only in the whole batch time, never in the exchange span
		// alone.
		if r.Plan.CommBucketVar != nil {
			res.Metrics[r.Plan.CommBucketVar.ID] = total
		}
		if r.Plan.CommPlaceVar != nil {
			res.Metrics[r.Plan.CommPlaceVar.ID] = total
		}
		res.Metrics["e2e"] = total
	}
}
