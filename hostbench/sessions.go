package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"astra"
	"astra/internal/distsim"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/profile"
	"astra/internal/verify"
	"astra/internal/wire"
)

// sessionBatch is the per-device mini-batch of every zoo-fk and
// explore-all session (the paper's evaluation scale).
const sessionBatch = 32

// wiredSteps is how many post-freeze mini-batches each session runs: a short
// stretch of training charged to every job, long enough to check that the
// wired steps all repeat one simulated time. Their host time is part of the
// job time only; README.md says why it is no metric of its own.
const wiredSteps = 50

// sessionSpec is one training job of a session workload.
type sessionSpec struct {
	model   string
	level   astra.Level
	workers int
	fabric  string
}

func (s sessionSpec) name() string {
	n := s.model + "/" + string(s.level)
	if s.workers >= 2 {
		n += fmt.Sprintf("/w%d-%s", s.workers, s.fabric)
	}
	return n
}

// sessionSample is one session's measured outcome.
type sessionSample struct {
	wireS, stepsS float64 // host seconds: config → wired schedule; all wired steps
	trials        int
	simUs         float64 // simulated wired mini-batch time
	problems      []string
}

func (s sessionSample) jobS() float64 { return s.wireS + s.stepsS }

func runZooFK(cfg config, rep *report) error {
	var specs []sessionSpec
	for _, m := range models.Names() {
		specs = append(specs, sessionSpec{model: m, level: astra.LevelFK})
	}
	return runSessions(cfg, rep, "zoo-fk", specs)
}

func runExploreAll(cfg config, rep *report) error {
	specs := []sessionSpec{
		{model: "scrnn", level: astra.LevelAll},
		{model: "milstm", level: astra.LevelAll},
		{model: "sublstm", level: astra.LevelAll},
		{model: "sublstm", level: astra.LevelFK, workers: 4, fabric: "pcie3"},
	}
	return runSessions(cfg, rep, "explore-all", specs)
}

// runSessions drives a session workload: set-up warms every spec at test
// scale; the untraced phase runs every session once in seeded order and
// then repeats sessions while the budget allows; a traced run adds one more
// pass with spans around every layer call.
//
// Sessions are single-threaded, so the workload runs on one P: garbage
// collection is then charged to the session that caused it instead of
// overlapping on whatever second CPU happens to be idle, which makes an
// allocation change show as time and the timings steadier.
func runSessions(cfg config, rep *report, workload string, specs []sessionSpec) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want, err := loadExpected()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5e55))
	order := rng.Perm(len(specs))
	fmt.Fprintf(cfg.out, "%s: %d sessions at batch %d, %d wired steps each, order", workload, len(specs), sessionBatch, wiredSteps)
	for _, i := range order {
		fmt.Fprintf(cfg.out, " %s", specs[i].name())
	}
	fmt.Fprintln(cfg.out)

	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		runtime.GC()
		t0 := time.Now()
		for _, i := range order {
			sp := specs[i]
			m, err := astra.BuildModel(sp.model, astra.ModelConfig{Batch: 4, Tiny: true})
			if err != nil {
				return err
			}
			s := astra.Compile(m, astra.Options{Level: sp.level, Workers: sp.workers, Fabric: sp.fabric})
			for !s.Done() {
				s.Step()
			}
			s.Step()
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	budget := cfg.seconds
	if cfg.trace {
		budget /= 2 // the other half is the traced pass
	}
	samples := map[string][]sessionSample{}
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	last := map[string]float64{}
	for n := 0; ; n++ {
		sp := specs[order[n%len(specs)]]
		if n >= len(specs) && time.Now().Add(time.Duration(last[sp.name()]*float64(time.Second))).After(deadline) {
			break
		}
		s := runSessionUntraced(sp)
		samples[sp.name()] = append(samples[sp.name()], s)
		last[sp.name()] = s.jobS()
	}
	for _, i := range order {
		sp := specs[i]
		for _, s := range samples[sp.name()] {
			rep.check("session "+sp.name(), append(s.problems, want.checkSession(workload, sp.name(), s)...)...)
		}
	}
	e2e := summarize(specs, samples)
	fmt.Fprintf(cfg.out, "%-24s %8s %8s %10s %7s %14s\n", "session", "wire_s", "steps_s", "job_ms", "trials", "sim_step_us")
	for _, sp := range specs {
		ss := samples[sp.name()]
		fmt.Fprintf(cfg.out, "%-24s %8.3f %8.3f %10.1f %7d %14.6g  (%d runs)\n", sp.name(),
			median(pick(ss, func(s sessionSample) float64 { return s.wireS })),
			median(pick(ss, func(s sessionSample) float64 { return s.stepsS })),
			1000*median(pick(ss, sessionSample.jobS)), ss[0].trials, ss[0].simUs, len(ss))
	}
	if !cfg.trace {
		rep.set("setup_s", median(setups), "s")
		e2e.set(rep)
		return nil
	}

	t := newTracer()
	var counts layerCounts
	traced := map[string][]sessionSample{}
	r0 := readRuntime()
	for _, i := range order {
		sp := specs[i]
		s := runSessionTraced(t, &counts, sp)
		traced[sp.name()] = append(traced[sp.name()], s)
		rep.check("traced session "+sp.name(), append(s.problems, want.checkSession(workload, sp.name(), s)...)...)
	}
	setRuntime(rep, r0, readRuntime(), counts.heapPeakB)
	return reportSessionLedger(cfg, rep, t, &counts, workload, specs, order, e2e, summarize(specs, traced))
}

// setupRepeats is how many times every workload repeats its set-up; the
// reported setup_s is the median.
const setupRepeats = 5

func pick(ss []sessionSample, f func(sessionSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// sessionSummary holds a session workload's end-to-end numbers: per-spec
// medians combined over one pass of every spec.
type sessionSummary struct {
	wireS, jobP50ms, jobMaxMs, jobsPerS float64
	trials                              int
	simUs                               float64
}

func summarize(specs []sessionSpec, samples map[string][]sessionSample) sessionSummary {
	var out sessionSummary
	var jobs []float64
	for _, sp := range specs {
		ss := samples[sp.name()]
		out.wireS += median(pick(ss, func(s sessionSample) float64 { return s.wireS }))
		jobs = append(jobs, median(pick(ss, sessionSample.jobS)))
		out.trials += ss[0].trials
		out.simUs += ss[0].simUs
	}
	out.jobP50ms = 1000 * median(jobs)
	out.jobMaxMs = 1000 * quantile(jobs, 1)
	out.jobsPerS = float64(len(specs)) / sum(jobs)
	return out
}

func (s sessionSummary) set(rep *report) {
	rep.set("wire_s", s.wireS, "s")
	rep.set("trials", float64(s.trials), "count")
	rep.set("sim_step_us", s.simUs, "sim_us")
	rep.set("job_p50_ms", s.jobP50ms, "ms")
	rep.set("job_p99_ms", s.jobMaxMs, "ms")
	rep.set("jobs_per_s", s.jobsPerS, "1/s")
}

// runSessionUntraced runs one session through the public API, the way a
// user drives it: BuildModel, Compile, Step until exploration freezes, then
// the wired steps.
func runSessionUntraced(sp sessionSpec) sessionSample {
	var out sessionSample
	t0 := time.Now()
	m, err := astra.BuildModel(sp.model, astra.ModelConfig{Batch: sessionBatch})
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return out
	}
	s := astra.Compile(m, astra.Options{Level: sp.level, Workers: sp.workers, Fabric: sp.fabric})
	for !s.Done() {
		s.Step()
	}
	t1 := time.Now()
	wired := make([]float64, wiredSteps)
	for i := range wired {
		wired[i] = s.Step()
	}
	out.wireS = t1.Sub(t0).Seconds()
	out.stepsS = time.Since(t1).Seconds()
	in := s.Internal()
	out.trials = in.Trials
	out.simUs = wired[len(wired)-1]
	out.problems = append(out.problems, sessionProblems(s.Err(), in.VerifyFindings, wired)...)
	return out
}

// sessionProblems lists what is wrong with a finished session: an error, a
// verifier finding, or wired steps whose simulated times disagree.
func sessionProblems(err error, findings int, wired []float64) []string {
	var out []string
	if err != nil {
		out = append(out, "session error: "+err.Error())
	}
	if findings > 0 {
		out = append(out, fmt.Sprintf("%d verifier findings", findings))
	}
	for _, us := range wired {
		if us != wired[0] {
			out = append(out, fmt.Sprintf("wired steps disagree: %v vs %v µs", us, wired[0]))
			break
		}
	}
	return out
}

// sessionConfig mirrors the session configuration astra.Compile and
// astra-serve build for a level ("F", "FK", "FKS" or "All"), stream count
// (0 keeps the preset's), worker count and fabric, with the verifier off so
// a traced run can call each analysis itself.
func sessionConfig(level string, streams, workers int, fabric string) wire.SessionConfig {
	presets := map[string]enumerate.Preset{
		"F": enumerate.PresetF, "FK": enumerate.PresetFK, "FKS": enumerate.PresetFKS, "All": enumerate.PresetAll,
	}
	eopts := enumerate.PresetOptions(presets[level])
	if streams > 0 {
		eopts.NumStreams = streams
	}
	var comm wire.CommConfig
	if workers >= 2 {
		ic, _ := distsim.FabricByName(fabric)
		comm = wire.CommConfig{Workers: workers, BytesPerUs: ic.BytesPerUs, LatencyUs: ic.LatencyUs, Fabric: ic.Name}
		eopts.CommAdapt = true
		eopts.Workers = workers
	}
	return wire.SessionConfig{
		Device:     gpusim.P100(),
		Options:    eopts,
		Runner:     wire.RunnerConfig{PerOpCPUUs: 2},
		Comm:       comm,
		Index:      profile.NewIndex(),
		SkipVerify: true,
	}
}

// layerCounts are the traced run's work counts, summed over sessions.
type layerCounts struct {
	nodes, vars, configs, findings, batches, kernels, trials, keys int
	wiredBatches                                                   int
	hitRate                                                        float64
	buildAllocB, enumAllocB, wiredAllocObjs                        float64
	heapPeakB                                                      float64
}

// tracedSetup runs a session's set-up under parent, one span per layer
// call: the model build, NewSession with the verifier off, an enumerate
// probe (NewSession enumerates inside, so its self time is reported net of
// the probe's) and the plan analyses. It returns the session, the
// verifier's report so far and the probe's span.
func tracedSetup(t *tracer, c *layerCounts, job string, parent int, build func() *models.Model,
	sc wire.SessionConfig) (*wire.Session, *verify.Report, int) {
	id := t.begin("models.build", job, parent)
	r0 := readRuntime()
	m := build()
	r1 := readRuntime()
	t.end(id)
	c.nodes += len(m.G.Nodes)
	c.buildAllocB += r1.allocBytes - r0.allocBytes
	c.heapPeakB = max(c.heapPeakB, r1.heapBytes)

	id = t.begin("wire.new_session", job, parent)
	s := wire.NewSession(m, sc)
	t.end(id)

	probe := t.begin("enumerate.probe", job, parent)
	r0 = readRuntime()
	enumerate.Enumerate(m.G, sc.Options)
	r1 = readRuntime()
	t.end(probe)
	c.enumAllocB += r1.allocBytes - r0.allocBytes

	id = t.begin("verify.plan", job, parent)
	vr := verify.CheckGraph(s.Plan.G)
	vr.Merge(verify.CheckUnits(s.Plan))
	for _, a := range s.Plan.Allocs {
		vr.Merge(verify.CheckStrategy(a, s.Plan.G.Values, s.Plan.Requests))
	}
	t.end(id)
	return s, vr, probe
}

// verifySpec is the configuration-check spec wire.NewSession derives
// from its config when the verifier is on.
func verifySpec(sc wire.SessionConfig) verify.Spec {
	return verify.Spec{
		Workers:   sc.Comm.Workers,
		BucketKB:  sc.Comm.DefaultBucketKB,
		Placement: sc.Comm.DefaultPlacement,
		MaxFusion: sc.Runner.MaxFusion,
	}
}

// runSessionTraced runs the sequence wire.Session.Step runs, calling each
// layer itself so every call gets a span: the set-up (tracedSetup), then
// per step the configuration check, the batch on every
// worker's runner, and the explorer update.
func runSessionTraced(t *tracer, counts *layerCounts, sp sessionSpec) sessionSample {
	var out sessionSample
	job := sp.name()
	root := t.begin("wire", job, 0)
	t0 := time.Now()
	sc := sessionConfig(string(sp.level), 0, sp.workers, sp.fabric)
	s, vr, probe := tracedSetup(t, counts, job, root, func() *models.Model {
		mc := models.DefaultConfig(sp.model, sessionBatch)
		mc.Embedding = true // astra.BuildModel's default
		build, _ := models.Get(sp.model)
		return build(mc)
	}, sc)

	spec := verifySpec(sc)
	seen := map[string]bool{}
	step := func(name string, parent int) wire.BatchResult {
		id := t.begin("verify.config", job, parent)
		if sig := verify.Signature(s.Plan); !seen[sig] {
			seen[sig] = true
			vr.Merge(verify.CheckConfig(s.Plan, spec))
		}
		t.end(id)
		id = t.begin(name, job, parent)
		res := s.Runner.RunBatch(nil, nil)
		for _, p := range s.Peers {
			pr := p.RunBatch(nil, nil)
			res.TotalUs = max(res.TotalUs, pr.TotalUs)
			counts.kernels += pr.Kernels
		}
		t.end(id)
		counts.kernels += res.Kernels
		counts.batches++
		return res
	}
	for s.Exp != nil && !s.Exp.Done() {
		res := step("wire.explore_batch", root)
		id := t.begin("adapt.step", job, root)
		s.Exp.Observe(res.Metrics)
		s.Exp.Advance()
		t.end(id)
		out.trials++
	}
	t.end(root)
	t1 := time.Now()

	wiredRoot := t.begin("wired", job, 0)
	r0 := readRuntime()
	wired := make([]float64, wiredSteps)
	for i := range wired {
		wired[i] = step("wire.wired_batch", wiredRoot).TotalUs
	}
	r1 := readRuntime()
	t.end(wiredRoot)
	counts.wiredAllocObjs += r1.allocObjs - r0.allocObjs
	counts.wiredBatches += wiredSteps

	// The probe is the tracer's own extra call, not part of wiring.
	out.wireS = t1.Sub(t0).Seconds() - t.get(probe).dur().Seconds()
	out.stepsS = time.Since(t1).Seconds()
	out.simUs = wired[len(wired)-1]
	var err error
	if s.Exp != nil {
		err = s.Exp.Err()
		counts.vars += len(s.Exp.Vars())
	}
	counts.configs += vr.Configs
	counts.findings += len(vr.Findings)
	counts.trials += out.trials
	counts.keys += s.Ix.Len()
	counts.hitRate += s.Ix.HitRate()
	out.problems = sessionProblems(err, len(vr.Findings), wired)
	return out
}

// reportSessionLedger prints the per-session and whole-pass ledgers of a
// traced session workload and sets the per-layer metrics. The enumerate
// probe is not part of the wired-schedule time: it is taken out of the
// total and moved from its own row into NewSession's, whose self time is
// then reported net of it.
func reportSessionLedger(cfg config, rep *report, t *tracer, c *layerCounts, workload string, specs []sessionSpec, order []int,
	untraced, traced sessionSummary) error {
	ledger := func(job string) (map[string]float64, float64) {
		rows, total := t.ledger("wire", job)
		probe := rows["enumerate.probe"]
		delete(rows, "enumerate.probe")
		rows["enumerate.enumerate"] = probe
		rows["wire.new_session_self"] = rows["wire.new_session"] - probe
		delete(rows, "wire.new_session")
		return rows, total - probe
	}
	layers := []string{"models.build", "enumerate.enumerate", "wire.new_session_self", "verify.plan",
		"verify.config", "wire.explore_batch", "adapt.step"}
	fmt.Fprintf(cfg.out, "per-session wire_s by layer (traced, seconds):\n%-24s %8s", "session", "wire_s")
	for _, l := range layers {
		fmt.Fprintf(cfg.out, " %12s", l)
	}
	fmt.Fprintf(cfg.out, " %8s\n", "other")
	for _, i := range order {
		rows, total := ledger(specs[i].name())
		fmt.Fprintf(cfg.out, "%-24s %8.3f", specs[i].name(), total)
		acc := 0.0
		for _, l := range layers {
			fmt.Fprintf(cfg.out, " %12.4f", rows[l])
			acc += rows[l]
		}
		fmt.Fprintf(cfg.out, " %8.4f\n", total-acc)
	}
	rows, total := ledger("")
	printLedger(cfg.out, workload+" wire_s", rows, total)
	wiredRows, wiredTotal := t.ledger("wired", "")
	printLedger(cfg.out, workload+" wired steps", wiredRows, wiredTotal)

	rep.set("models.build_s", rows["models.build"], "s")
	rep.set("models.alloc_mb", c.buildAllocB/mb, "MB")
	rep.set("models.nodes", float64(c.nodes), "count")
	rep.set("enumerate.enumerate_s", rows["enumerate.enumerate"], "s")
	rep.set("enumerate.alloc_mb", c.enumAllocB/mb, "MB")
	rep.set("enumerate.vars", float64(c.vars), "count")
	rep.set("wire.new_session_self_s", rows["wire.new_session_self"], "s")
	rep.set("verify.plan_s", rows["verify.plan"], "s")
	rep.set("verify.config_s", rows["verify.config"]+wiredRows["verify.config"], "s")
	rep.set("verify.configs", float64(c.configs), "count")
	rep.set("verify.findings", float64(c.findings), "count")
	rep.set("wire.explore_batch_s", rows["wire.explore_batch"], "s")
	rep.set("wire.wired_batch_s", wiredRows["wire.wired_batch"], "s")
	rep.set("wire.batches", float64(c.batches), "count")
	rep.set("wire.kernels", float64(c.kernels), "count")
	if c.kernels > 0 {
		rep.set("wire.ns_per_kernel", 1e9*(rows["wire.explore_batch"]+wiredRows["wire.wired_batch"])/float64(c.kernels), "ns")
	}
	rep.set("wire.allocs_per_batch", c.wiredAllocObjs/float64(c.wiredBatches), "count")
	rep.set("adapt.step_s", rows["adapt.step"], "s")
	rep.set("adapt.trials", float64(c.trials), "count")
	rep.set("profile.keys", float64(c.keys), "count")
	rep.set("profile.hit_rate", c.hitRate/float64(len(specs)), "ratio")
	other := total
	for _, v := range rows {
		other -= v
	}
	rep.set("ledger.other_s", other, "s")
	rep.set("ledger.other_pct", pct(other, total), "%")
	setOverhead(cfg, rep, untraced.wireS, traced.wireS, untraced.jobP50ms, traced.jobP50ms)
	if traced.trials != untraced.trials || traced.simUs != untraced.simUs {
		rep.check("traced vs untraced", fmt.Sprintf("traced run found %d trials / %v µs, untraced %d / %v",
			traced.trials, traced.simUs, untraced.trials, untraced.simUs))
	} else {
		rep.check("traced vs untraced")
	}
	path, err := t.write(cfg.outDir, workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if path != "" {
		fmt.Fprintf(cfg.out, "spans written to %s (%d spans)\n", path, len(t.spans))
	}
	return nil
}

// setOverhead reports what tracing costs: traced minus untraced wire_s and
// job_p50_ms.
func setOverhead(cfg config, rep *report, wireS, tracedWireS, jobMs, tracedJobMs float64) {
	fmt.Fprintf(cfg.out, "tracing overhead: wire_s %+.4f s (%.3f traced vs %.3f untraced), job_p50_ms %+.3f ms\n",
		tracedWireS-wireS, tracedWireS, wireS, tracedJobMs-jobMs)
	rep.set("trace.overhead_wire_s", tracedWireS-wireS, "s")
	rep.set("trace.overhead_job_p50_ms", tracedJobMs-jobMs, "ms")
}
