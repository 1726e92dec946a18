package whatif

import (
	"math"

	"astra/internal/analyze"
	"astra/internal/obs"
	"astra/internal/spec"
)

// commRecost re-costs communication kernels for a fabric swap, a ring
// re-size, or a bucket re-scale. Each recorded comm kernel is one step of a
// 2·(nOld−1)-step ring all-reduce; its recorded tile time (SMTimeUs —
// comm kernels are single-tile, so the value is the exact per-step time)
// decomposes into per-link serialization plus hop latency, which inverts to
// the bucket's payload. The replayed kernel then stands for `ratio` kernels
// of the new ring (stepsNew steps per bucket, 1/bucketFactor buckets), each
// running the new per-step time.
type commRecost struct {
	old, new spec.Interconnect
	nOld     int
	nNew     int
	bf       float64
	ratio    float64 // replayed comm kernels per recorded one
}

func newCommRecost(meta spec.Spec, pert Perturbation) *commRecost {
	bf := pert.bucketFactor()
	if pert.Fabric == "" && pert.Workers == 0 && bf == 1 {
		return nil
	}
	if meta.Workers < 2 {
		return nil // validated earlier; single-GPU logs have no comm kernels
	}
	to := pert.scenario(meta)
	old, _ := spec.FabricByName(meta.Fabric)
	cr := &commRecost{old: old, nOld: meta.Workers, nNew: to.Workers, bf: bf}
	cr.new, _ = spec.FabricByName(to.Fabric)
	if cr.new == cr.old && cr.nNew == cr.nOld && cr.bf == 1 {
		return nil
	}
	stepsOld := float64(2 * (cr.nOld - 1))
	stepsNew := float64(2 * (cr.nNew - 1))
	cr.ratio = stepsNew / (stepsOld * bf)
	return cr
}

// recost maps one recorded per-step tile time to the new per-step tile
// time. Inversion: tileOld = bytes/(nOld·bwOld) + latOld, so the bucket
// payload is (tileOld − latOld)·bwOld·nOld; the new step moves
// payload·bf/nNew over the new link.
func (cr *commRecost) recost(tileOld float64) float64 {
	payload := (tileOld - cr.old.LatencyUs) * cr.old.BytesPerUs * float64(cr.nOld)
	if payload < 0 {
		payload = 0
	}
	return payload*cr.bf/(float64(cr.nNew)*cr.new.BytesPerUs) + cr.new.LatencyUs
}

// commSetupUs is the fixed device-side setup of a communication step
// kernel (wire.launchBucketAllReduce issues them with SetupUs 0.5).
const commSetupUs = 0.5

// replayProfile re-schedules one worker's recorded batch under the
// perturbation. The forward pass walks kernels in launch order (dependency
// producers always precede their consumers there) re-applying the
// simulator's start rule StartUs = max(LaunchUs, FreeUs, WaitUs) with
// perturbed operands. Exactness discipline: any operand the perturbation
// did not move is copied from the record — in particular a kernel whose
// start and duration are both untouched copies its recorded EndUs rather
// than recomputing start+duration, so identity replays are bit-exact and
// class speedups are exactly monotone.
func replayProfile(p *obs.BatchProfile, meta spec.Spec, pert Perturbation, cr *commRecost) obs.BatchProfile {
	n := len(p.Kernels)
	deps := analyze.Dependencies(p)
	lf := pert.launchFactor()
	newLaunchOverheadUs := meta.LaunchOverheadUs * lf

	// CPU launch lane: each kernel's recorded LaunchUs embeds one launch
	// overhead per prior launch (streams share the one dispatcher thread),
	// so scaling the overhead shifts launch i by i+1 deltas — and a
	// re-sized ring adds (ratio−1) extra launches' cost per comm kernel.
	// A dropped comm kernel (ratio 0) refunds its whole launch cost.
	launchNew := make([]float64, n)
	dropped := make([]bool, n)
	isComm := make([]bool, n)
	cum := 0.0
	for i := range p.Kernels {
		k := &p.Kernels[i]
		isComm[i] = obs.KernelClass(k.Name) == obs.ClassAllReduce
		if cr != nil && isComm[i] && cr.ratio == 0 {
			dropped[i] = true
			cum -= meta.PerOpCPUUs + meta.LaunchOverheadUs
			continue
		}
		if lf != 1 {
			cum += meta.LaunchOverheadUs * (lf - 1)
		}
		launchNew[i] = k.LaunchUs + cum
		if cr != nil && isComm[i] && cr.ratio != 1 {
			cum += (cr.ratio - 1) * (meta.PerOpCPUUs + newLaunchOverheadUs)
		}
	}
	totalShift := cum

	// Forward scheduling pass.
	startNew := make([]float64, n)
	endNew := make([]float64, n)
	endEff := make([]float64, n) // stream-FIFO end seen by successors (chains through dropped kernels)
	endsChanged := false
	out := obs.BatchProfile{
		Worker: p.Worker, Streams: p.Streams, CommStream: p.CommStream,
		NumSMs: p.NumSMs,
	}
	anyDropped := false
	for i := range p.Kernels {
		k := &p.Kernels[i]
		free := 0.0
		if j := deps[i].FIFO; j >= 0 {
			free = endEff[j]
		}
		if dropped[i] {
			anyDropped = true
			endEff[i] = free
			continue
		}
		wait := 0.0
		waitStream, waitTag := k.WaitStream, k.WaitTag
		if k.WaitUs > 0 {
			switch j := deps[i].Wait; {
			case j >= 0 && dropped[j]:
				// The producer vanished with the exchange; so did the edge.
				waitStream, waitTag = -1, ""
			case j >= 0:
				wait = endNew[j]
			default:
				// No kernel end matched the recorded operand: the event
				// resolved at its CPU arrival on an already-drained stream.
				// That arrival is not recorded per event, so replay keeps
				// the recorded constant (see docs/WHATIF.md, known limits).
				wait = k.WaitUs
			}
		}
		start := math.Max(launchNew[i], math.Max(free, wait))

		durOld := k.EndUs - k.StartUs
		end := 0.0
		smNew := k.SMTimeUs
		switch f := pert.Speedups[obs.KernelClass(k.Name)]; {
		case cr != nil && isComm[i]:
			tileNew := cr.recost(k.SMTimeUs)
			dur := (commSetupUs + tileNew) * cr.ratio
			end = start + dur
			smNew = tileNew * cr.ratio
		case f != 0 && f != 1:
			// Setup-split scaling: the fixed kernel setup does not speed up
			// with the class; only the tile time does. Clamped so a speedup
			// (f > 1) never lengthens a kernel even at the last ulp — that
			// clamp is what makes the monotonicity property exact.
			setup := meta.KernelSetupUs
			if isComm[i] {
				setup = commSetupUs
			}
			if setup > durOld {
				setup = durOld
			}
			dur := setup + (durOld-setup)/f
			if f > 1 && dur > durOld {
				dur = durOld
			}
			end = start + dur
			if durOld > 0 {
				smNew = k.SMTimeUs * (dur / durOld)
			}
		case start == k.StartUs:
			end = k.EndUs // untouched kernel: exact copy, no re-derivation
		default:
			end = start + durOld
		}
		startNew[i], endNew[i] = start, end
		endEff[i] = end
		if end != k.EndUs {
			endsChanged = true
		}
		out.Kernels = append(out.Kernels, obs.KernelSample{
			Name: k.Name, Stream: k.Stream,
			LaunchUs: launchNew[i], StartUs: start, EndUs: end,
			SMTimeUs: smNew, FreeUs: free, WaitUs: wait,
			WaitStream: waitStream, WaitTag: waitTag,
		})
		out.SMBusyUs += smNew
	}

	// Batch envelope. Device end: copy when no kernel end moved (the
	// recorded value also covers device time past the last kernel, e.g.
	// host transfers); otherwise the latest replayed end.
	deviceEnd := p.EndUs
	if endsChanged || anyDropped {
		deviceEnd = 0
		for i := range endNew {
			if !dropped[i] && endNew[i] > deviceEnd {
				deviceEnd = endNew[i]
			}
		}
	}
	// CPU end: a dispatch-bound recording (CPU clock past the device) keeps
	// its recorded dispatch tail shifted by the launch-lane delta; a
	// device-bound one only needs a lower bound (the last launch), since
	// the device end dominates the max below.
	cpuEnd := p.CPUUs + totalShift
	if p.CPUUs <= p.EndUs {
		cpuEnd = 0
		for i := n - 1; i >= 0; i-- {
			if !dropped[i] {
				cpuEnd = launchNew[i]
				break
			}
		}
	}
	wall := math.Max(deviceEnd, cpuEnd)
	if !endsChanged && !anyDropped && totalShift == 0 {
		wall = p.WallUs() // bit-exact identity
	}
	out.EndUs = deviceEnd
	out.CPUUs = wall // post-Synchronize semantics: CPU clock == batch wall
	if anyDropped && cr != nil && cr.nNew <= 1 {
		out.CommStream = -1
	}
	if !endsChanged && !anyDropped {
		out.SMBusyUs = p.SMBusyUs
	}
	return out
}

// predictEvent replays one event's per-worker profiles and rebuilds the
// event envelope around the predictions.
func predictEvent(ev *obs.TrialEvent, meta spec.Spec, pert Perturbation) (obs.TrialEvent, error) {
	out := *ev
	if len(ev.Profiles) == 0 {
		// Nothing to replay; the recorded time is the only estimate.
		return out, nil
	}
	cr := newCommRecost(meta, pert)
	out.Profiles = make([]obs.BatchProfile, 0, len(ev.Profiles))
	out.BatchUs = 0
	replayWorkers := len(ev.Profiles)
	if cr != nil && cr.nNew >= 1 {
		// The ring re-sized: replay min(recorded, new) replicas. Growing
		// keeps the recorded replica count (replicas are identical — the
		// re-costed comm kernels already price the larger ring); shrinking
		// to n keeps the first n (the rest no longer exist).
		if cr.nNew < replayWorkers {
			replayWorkers = cr.nNew
		}
	}
	var workerUs []float64
	for i := 0; i < replayWorkers; i++ {
		np := replayProfile(&ev.Profiles[i], meta, pert, cr)
		out.Profiles = append(out.Profiles, np)
		w := np.WallUs()
		workerUs = append(workerUs, w)
		if w > out.BatchUs {
			out.BatchUs = w
		}
	}
	// Scenario metadata: the predicted log describes the hypothetical
	// cluster, not the recorded one.
	if len(ev.WorkerUs) > 0 || (cr != nil && cr.nNew > 1) {
		out.WorkerUs = workerUs
		out.Workers = len(workerUs)
		if cr != nil {
			out.Workers = cr.nNew
			out.Fabric = cr.new.Name
		}
	}
	if cr != nil && cr.nNew <= 1 {
		out.Workers, out.WorkerUs, out.Fabric, out.CommUs = 1, nil, "", 0
	}
	// Comm link-busy time and kernel count re-derive from worker 0's
	// replayed timeline, mirroring the runner's accounting.
	if len(out.Profiles) > 0 {
		p0 := &out.Profiles[0]
		out.Kernels = len(p0.Kernels)
		if out.Workers >= 2 {
			comm := 0.0
			for i := range p0.Kernels {
				k := &p0.Kernels[i]
				if obs.KernelClass(k.Name) == obs.ClassAllReduce {
					comm += k.EndUs - k.StartUs
				}
			}
			out.CommUs = comm
		}
	}
	return out, nil
}
