package verify

import (
	"fmt"
	"strconv"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/graph"
	"astra/internal/kernels"
	"astra/internal/memory"
)

// Spec fixes the schedule parameters that live outside the plan's adaptive
// variables (wire derives it from its RunnerConfig).
type Spec struct {
	// Workers is the data-parallel degree; below 2 the schedule has no
	// gradient exchange.
	Workers int
	// BucketKB is the gradient-bucket cap used when the plan has no
	// comm.bucket_kb variable (0 = one bucket for everything).
	BucketKB int
	// Placement is the comm placement used when the plan has no comm.place
	// variable ("comm" or "main"; empty means "comm").
	Placement string
	// MaxFusion pins groups at their maximal chunk when the plan has no
	// chunk variables (the static-fusion baseline policy).
	MaxFusion bool
}

// OpKind classifies schedule operations.
type OpKind int

// Schedule operation kinds.
const (
	// OpKernel is a compute or communication kernel launch.
	OpKernel OpKind = iota
	// OpCopy is a gather copy staging a fused chunk's operands.
	OpCopy
	// OpRecord records a synchronization event on its stream.
	OpRecord
	// OpWait makes its stream wait for an event recorded elsewhere.
	OpWait
	// OpEnd marks the end of the batch on stream 0.
	OpEnd
)

// Op is one operation of the schedule, in issue order.
type Op struct {
	Kind   OpKind
	Stream int
	// Kernel is the device kernel a compute kernel or copy launches. Ring
	// steps carry only the name; the executor derives their duration from
	// the bucket's bytes and the fabric.
	Kernel gpusim.KernelSpec
	// Event is the id an OpRecord defines and an OpWait awaits.
	Event int
	// Tag says why a wait exists: "epoch", "barrier", "bucket" or
	// "commjoin".
	Tag string
	// Unit attributes compute kernels and copies to their schedule unit;
	// a unit's ops are contiguous in issue order.
	Unit *enumerate.Unit
	// Group and Members describe fused GEMM chunks (Members >= 2) and the
	// gather copies staged for them.
	Group   *enumerate.FusionGroup
	Members int
	// Bucket indexes the comm bucket a ring step belongs to; -1 otherwise.
	Bucket int
	// Epoch marks the records closing an epoch on each of its streams.
	Epoch *enumerate.Epoch
}

// Bucket is one gradient bucket of the schedule.
type Bucket struct {
	Bytes int64
	Grads int
	// Units are the distinct schedule units producing this bucket's
	// gradients, in dispatch order; the last one triggers the exchange.
	Units []*enumerate.Unit
}

// Pos addresses one op by its stream and its index within that stream.
type Pos struct{ Stream, Index int }

// Schedule is the lowered multi-stream program for one configuration: the
// exact sequence of kernels, gather copies, and RecordEvent/WaitEvent edges
// the custom-wirer issues for the plan's current variable bindings. The
// verifier analyses it and wire.Runner executes it. It captures the
// binding-dependent context (allocation strategy, bucket cap) so the
// analyses check the schedule against what it was lowered for.
type Schedule struct {
	// Ops is the whole program in issue order.
	Ops []Op
	// NumEvents counts the synchronization events recorded; event ids are
	// 0..NumEvents-1.
	NumEvents int
	// SuperStart[i] is the index in Ops of super-epoch i's first op.
	SuperStart []int
	// Alloc is the allocation strategy active when the schedule was built.
	Alloc *memory.Strategy
	// Buckets, CommStream, Workers and BucketCapBytes describe the gradient
	// exchange (Buckets is nil and CommStream -1 when there is none).
	Buckets        []Bucket
	CommStream     int
	Workers        int
	BucketCapBytes int64
}

// ComputeStreams returns how many compute streams the plan's schedules
// use; a dedicated comm stream, when present, follows them.
func ComputeStreams(p *enumerate.Plan) int {
	if p.Opts.StreamAdapt {
		return p.Opts.NumStreams
	}
	return 1
}

// lowerer walks the plan's super-epochs, epochs and units once, emitting
// the schedule's ops.
type lowerer struct {
	p     *enumerate.Plan
	spec  Spec
	s     *Schedule
	multi bool
	// commOn is the stream ring steps are issued on (-1 without comm).
	commOn int

	used []bool // streams that have carried work, by stream ID
	// prev holds the previous epoch's end records; barrier the latest
	// super-epoch barrier's records. A stream first used after a barrier
	// waits on them, since the barrier's all-pairs synchronization only
	// covered the streams used so far.
	prev, barrier []streamEvent
	unitStream    map[*enumerate.Unit]int
	// atUnit maps a bucket's trigger unit to the bucket indices it fires.
	atUnit map[*enumerate.Unit][]int
	// per-epoch and per-bucket scratch
	assign                 map[*enumerate.Unit]int
	waited, usedHere, seen []bool
}

type streamEvent struct{ stream, event int }

// Lower turns the plan's current variable bindings under spec into the
// schedule the wirer issues. It is the only place bindings become streams,
// events and kernels. A malformed chunk or bucket label panics.
func Lower(p *enumerate.Plan, spec Spec) *Schedule {
	compute := ComputeStreams(p)
	l := &lowerer{
		p:          p,
		spec:       spec,
		multi:      compute >= 2,
		commOn:     -1,
		used:       make([]bool, compute),
		waited:     make([]bool, compute),
		usedHere:   make([]bool, compute),
		seen:       make([]bool, compute),
		unitStream: map[*enumerate.Unit]int{},
		atUnit:     map[*enumerate.Unit][]int{},
		assign:     map[*enumerate.Unit]int{},
		s: &Schedule{
			SuperStart: make([]int, 0, len(p.Supers)),
			Alloc:      p.Alloc(),
			CommStream: -1,
			Workers:    spec.Workers,
		},
	}
	l.used[0] = true
	if spec.Workers >= 2 && len(p.Grads) > 0 {
		l.prepareComm(compute)
	}
	for _, se := range p.Supers {
		l.s.SuperStart = append(l.s.SuperStart, len(l.s.Ops))
		for _, ep := range se.Epochs {
			l.epoch(ep)
		}
		l.barrierSync()
	}
	// The batch ends only when the gradient exchange has: the optimizer
	// consumes the reduced gradients, so stream 0 joins on the comm stream.
	if l.commOn > 0 {
		l.wait(0, l.record(l.commOn, nil), "commjoin")
	}
	l.emit(Op{Kind: OpEnd, Stream: 0})
	return l.s
}

// emit appends an op; only ring steps, which launchBucket appends itself,
// belong to a bucket.
func (l *lowerer) emit(op Op) {
	op.Bucket = -1
	l.s.Ops = append(l.s.Ops, op)
}

func (l *lowerer) record(stream int, ep *enumerate.Epoch) int {
	ev := l.s.NumEvents
	l.s.NumEvents++
	l.emit(Op{Kind: OpRecord, Stream: stream, Event: ev, Epoch: ep})
	return ev
}

func (l *lowerer) wait(stream, ev int, tag string) {
	l.emit(Op{Kind: OpWait, Stream: stream, Event: ev, Tag: tag})
}

func (l *lowerer) kernel(stream int, u *enumerate.Unit, spec gpusim.KernelSpec) {
	l.emit(Op{Kind: OpKernel, Stream: stream, Kernel: spec, Unit: u})
}

// prepareComm packs the gradients into buckets under the active cap and
// reserves the comm stream after the compute streams.
func (l *lowerer) prepareComm(compute int) {
	s := l.s
	s.CommStream = compute
	s.BucketCapBytes = l.bucketCapBytes()
	s.Buckets = packBuckets(l.p, s.BucketCapBytes)
	for i, b := range s.Buckets {
		last := b.Units[len(b.Units)-1]
		l.atUnit[last] = append(l.atUnit[last], i)
	}
	l.commOn = 0
	if l.placement() == "comm" {
		l.commOn = compute
	}
}

func (l *lowerer) placement() string {
	if v := l.p.CommPlaceVar; v != nil {
		return v.CurrentLabel()
	}
	if l.spec.Placement != "" {
		return l.spec.Placement
	}
	return "comm"
}

// bucketCapBytes resolves the active bucket byte cap: the comm.bucket_kb
// variable when the plan explores it, the spec's default otherwise. 0 means
// unbounded (a single bucket).
func (l *lowerer) bucketCapBytes() int64 {
	if v := l.p.CommBucketVar; v != nil {
		label := v.CurrentLabel()
		if label == "all" {
			return 0
		}
		kb, err := strconv.ParseInt(label, 10, 64)
		if err != nil || kb <= 0 {
			panic(fmt.Sprintf("verify: bad bucket label %q", label))
		}
		return kb * 1024
	}
	return int64(l.spec.BucketKB) * 1024
}

// streamAssignment assigns each unit of the epoch a stream: class variables
// say how many of each equivalence class move off stream 0 (§4.5.5),
// spread round-robin over the auxiliary streams; classes without a
// variable stay on stream 0.
func (l *lowerer) streamAssignment(ep *enumerate.Epoch) {
	clear(l.assign)
	if !l.multi {
		return
	}
	aux := l.p.Opts.NumStreams - 1
	for _, cls := range ep.Classes {
		k := 0
		if v := l.p.StreamVars[cls]; v != nil {
			k, _ = strconv.Atoi(v.CurrentLabel())
		}
		for i, u := range cls.Units {
			if i < k {
				l.assign[u] = 1 + i%aux
			}
		}
	}
}

// epoch lowers one epoch: before a stream's first unit of the epoch, waits
// on the previous epoch's end records of the other streams (and, for a
// stream new since the last barrier, on the barrier's records); then each
// unit with the buckets it completes; then, with several streams, an end
// record on every stream the epoch used.
func (l *lowerer) epoch(ep *enumerate.Epoch) {
	l.streamAssignment(ep)
	clear(l.waited)
	clear(l.usedHere)
	for _, u := range ep.Units {
		stream := l.assign[u]
		if !l.waited[stream] {
			l.waited[stream] = true
			if !l.used[stream] {
				for _, b := range l.barrier {
					if b.stream != stream {
						l.wait(stream, b.event, "barrier")
					}
				}
			}
			for _, e := range l.prev {
				if e.stream != stream {
					l.wait(stream, e.event, "epoch")
				}
			}
		}
		l.usedHere[stream] = true
		l.used[stream] = true
		l.unitStream[u] = stream
		l.unit(u, stream)
		for _, bi := range l.atUnit[u] {
			l.launchBucket(bi, stream)
		}
	}
	if l.multi {
		l.prev = l.prev[:0]
		for s := 0; s < l.p.Opts.NumStreams; s++ {
			if l.usedHere[s] {
				l.prev = append(l.prev, streamEvent{s, l.record(s, ep)})
			}
		}
	}
}

// barrierSync force-synchronizes every used compute stream (§4.5.3), in
// stream order, resetting scheduling history so super-epochs explore
// independently. The comm stream stays out: syncing the exchange at every
// barrier would serialize it behind compute again.
func (l *lowerer) barrierSync() {
	if !l.multi {
		return
	}
	l.barrier = l.barrier[:0]
	for s, used := range l.used {
		if used {
			l.barrier = append(l.barrier, streamEvent{s, l.record(s, nil)})
		}
	}
	for i, b := range l.barrier {
		for j, e := range l.barrier {
			if j != i {
				l.wait(b.stream, e.event, "barrier")
			}
		}
	}
	l.prev = l.prev[:0]
}

// unit lowers one schedule unit's kernels onto its stream.
func (l *lowerer) unit(u *enumerate.Unit, stream int) {
	switch u.Kind {
	case enumerate.UnitSingle:
		l.kernel(stream, u, kernels.ForNode(u.Nodes[0], l.libFor(u)))
	case enumerate.UnitEWChain:
		elems := 0
		for _, n := range u.Nodes {
			elems = max(elems, n.Out.Shape.NumElements())
		}
		l.kernel(stream, u, kernels.FusedElementwise(len(u.Nodes), elems))
	case enumerate.UnitGEMMGroup:
		l.group(u, stream)
	}
}

// libFor reads the unit's kernel-library variable (or the default).
func (l *lowerer) libFor(u *enumerate.Unit) kernels.Library {
	if v := l.p.KernelVars[u]; v != nil {
		return kernels.Library(v.Current())
	}
	return kernels.CuBLAS
}

// chunkSize reads the group's chunk variable (or the fixed policy).
func (l *lowerer) chunkSize(u *enumerate.Unit) int {
	if v := l.p.ChunkVars[u.Group]; v != nil {
		c, err := strconv.Atoi(v.CurrentLabel())
		if err != nil || c < 1 {
			panic(fmt.Sprintf("verify: bad chunk label %q", v.CurrentLabel()))
		}
		return c
	}
	if l.spec.MaxFusion {
		return len(u.Group.GEMMs)
	}
	return 1
}

// group lowers a fusion group at the current chunk granularity:
// ceil(n/chunk) fused GEMMs, gather copies when the active allocation does
// not keep the chunk's operands contiguous, and the residual accumulator
// adds of a partially-fused ladder.
func (l *lowerer) group(u *enumerate.Unit, stream int) {
	grp := u.Group
	chunk := l.chunkSize(u)
	lib := l.libFor(u)
	contiguous := grp.ReqID != "" && l.s.Alloc.Contiguous(grp.ReqID)
	n := len(grp.GEMMs)
	numChunks := (n + chunk - 1) / chunk
	for c := 0; c < numChunks; c++ {
		members := grp.GEMMs[c*chunk : min(c*chunk+chunk, n)]
		if len(members) == 1 {
			l.kernel(stream, u, kernels.ForNode(members[0], lib))
			continue
		}
		if !contiguous {
			var bytes int64
			for _, m := range members {
				bytes += operandBytes(grp, m)
			}
			l.emit(Op{Kind: OpCopy, Stream: stream, Kernel: kernels.Copy(bytes), Unit: u, Group: grp, Members: len(members)})
		}
		l.emit(Op{Kind: OpKernel, Stream: stream, Kernel: kernels.GEMM(lib, fusedShape(grp, members)),
			Unit: u, Group: grp, Members: len(members)})
	}
	if grp.Kind == enumerate.Ladder && numChunks > 1 {
		elems := grp.GEMMs[0].Out.Shape.NumElements()
		for i := 0; i < numChunks-1; i++ {
			l.kernel(stream, u, kernels.Elementwise("add", elems))
		}
	}
}

// operandBytes returns the bytes of the member's fusable operand.
func operandBytes(grp *enumerate.FusionGroup, m *graph.Node) int64 {
	side := 1
	if grp.Kind == enumerate.SharedRight {
		side = 0
	}
	return int64(m.Inputs[side].Shape.NumElements() * 8)
}

// fusedShape computes the fused GEMM problem size for a chunk of members.
func fusedShape(grp *enumerate.FusionGroup, members []*graph.Node) kernels.GEMMShape {
	first := members[0]
	s := kernels.GEMMShape{
		M: first.Inputs[0].Shape.Rows(),
		K: first.Inputs[0].Shape.Cols(),
		N: first.Inputs[1].Shape.Cols(),
	}
	for _, m := range members[1:] {
		switch grp.Kind {
		case enumerate.SharedLeft:
			s.N += m.Inputs[1].Shape.Cols()
		case enumerate.SharedRight:
			s.M += m.Inputs[0].Shape.Rows()
		case enumerate.Ladder:
			s.K += m.Inputs[0].Shape.Cols()
		}
	}
	return s
}

// CommKernelPrefix names every ring-step kernel, so comm statistics and
// trace lanes can be told apart from compute.
const CommKernelPrefix = "allreduce."

// launchBucket issues one bucket's ring all-reduce: a readiness record on
// every stream that produced one of the bucket's gradients, a wait for each
// on the comm stream, then 2·(n−1) step kernels. Covering every producing
// stream matters: a bucket can span units of one epoch on different
// streams, and the trigger unit says nothing about the others' progress. A
// producer not yet dispatched gets its record on the trigger stream.
func (l *lowerer) launchBucket(idx, trigger int) {
	clear(l.seen)
	for _, u := range l.s.Buckets[idx].Units {
		s, ok := l.unitStream[u]
		if !ok {
			s = trigger
		}
		if l.seen[s] {
			continue
		}
		l.seen[s] = true
		ev := l.record(s, nil)
		if s != l.commOn {
			l.wait(l.commOn, ev, "bucket")
		}
	}
	for k := 0; k < 2*(l.spec.Workers-1); k++ {
		l.s.Ops = append(l.s.Ops, Op{Kind: OpKernel, Stream: l.commOn, Bucket: idx,
			Kernel: gpusim.KernelSpec{Name: fmt.Sprintf("%sb%d.s%d", CommKernelPrefix, idx, k), Tiles: 1, SetupUs: 0.5}})
	}
}
