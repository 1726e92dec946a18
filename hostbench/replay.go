package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"time"

	"astra"
	"astra/internal/analyze"
	"astra/internal/obs"
	"astra/internal/whatif"
)

// replaySteps is how many wired mini-batches each recorded log holds after
// its exploration trials.
const replaySteps = 20

// logSpec is one recorded run the replay workload analyzes.
type logSpec struct {
	sessionSpec
	batch int
	tiny  bool
}

// replayLogs are the recorded runs: sublstm FK over two pcie3 workers (the
// what-if matrix re-costs its exchange) and one single-GPU run.
var replayLogs = []logSpec{
	{sessionSpec: sessionSpec{model: "sublstm", level: astra.LevelFK, workers: 2, fabric: "pcie3"}, batch: sessionBatch},
	{sessionSpec: sessionSpec{model: "scrnn", level: astra.LevelFK}, batch: sessionBatch},
}

// scenarios is the what-if panel replayed over a log: for a multi-worker
// recording the {pcie3, nvlink1} × {1, 2, 4, 8} matrix, and for every log
// a 2× speedup of each kernel class and a halved launch overhead. The
// identity scenario comes first in the matrix; single-GPU logs get their
// own.
func scenarios(workers int) []whatif.Scenario {
	var out []whatif.Scenario
	if workers >= 2 {
		out = whatif.MatrixScenarios([]string{"pcie3", "nvlink1"}, []int{1, 2, 4, 8})
	} else {
		out = []whatif.Scenario{{Name: "identity"}}
	}
	for _, class := range obs.KernelClasses() {
		if class == obs.ClassAllReduce && workers < 2 {
			continue
		}
		out = append(out, whatif.NewScenario(whatif.Perturbation{Speedups: map[string]float64{class: 2}}))
	}
	return append(out, whatif.NewScenario(whatif.Perturbation{LaunchFactor: 0.5}))
}

// recording is one recorded session: its event log and its outcome.
type recording struct {
	log    []byte
	sample sessionSample
}

// record runs a session with telemetry attached and the JSONL event log
// going to memory, the way astra-run -events-out records one.
func record(t *tracer, l logSpec) (recording, error) {
	job := l.name()
	var out recording
	root := t.begin("wire", job, 0)
	t0 := time.Now()
	id := t.begin("models.build", job, root)
	m, err := astra.BuildModel(l.model, astra.ModelConfig{Batch: l.batch, Tiny: l.tiny})
	t.end(id)
	if err != nil {
		return out, err
	}
	id = t.begin("wire.compile", job, root)
	s := astra.Compile(m, astra.Options{Level: l.level, Workers: l.workers, Fabric: l.fabric})
	var buf bytes.Buffer
	s.Instrument().SetEventSink(&buf)
	t.end(id)
	id = t.begin("wire.explore", job, root)
	for !s.Done() {
		s.Step()
	}
	t.end(id)
	t.end(root)
	t1 := time.Now()
	id = t.begin("wired", job, 0)
	wired := make([]float64, replaySteps)
	for i := range wired {
		wired[i] = s.Step()
	}
	t.end(id)
	in := s.Internal()
	out.log = buf.Bytes()
	out.sample = sessionSample{
		wireS:    t1.Sub(t0).Seconds(),
		stepsS:   time.Since(t1).Seconds(),
		trials:   in.Trials,
		simUs:    wired[len(wired)-1],
		problems: sessionProblems(s.Err(), in.VerifyFindings, wired),
	}
	return out, nil
}

// replayed is one log's replay: its host time and what it produced.
type replayed struct {
	seconds    float64
	batches    int
	predicted  int
	digest     string
	problems   []string
	eventBytes int
}

// replay decodes a recorded log, analyzes and verifies it, and replays the
// scenario panel in the given order. The identity scenario must reproduce
// every recorded batch bit for bit; the digest covers every prediction,
// keyed by scenario name so it does not depend on the order.
func replay(t *tracer, job string, log []byte, panel []whatif.Scenario) (replayed, error) {
	out := replayed{eventBytes: len(log)}
	t0 := time.Now()
	root := t.begin("replay", job, 0)
	id := t.begin("obs.read_events", job, root)
	events, err := obs.ReadTrialEvents(bytes.NewReader(log))
	t.end(id)
	if err != nil {
		return out, fmt.Errorf("reading %s events: %w", job, err)
	}
	workers := 1 // serial, so the replay measures CPU work, not parallelism
	id = t.begin("analyze.run", job, root)
	run, err := analyze.AnalyzeRun(events, workers)
	t.end(id)
	if err != nil {
		return out, fmt.Errorf("analyzing %s: %w", job, err)
	}
	id = t.begin("analyze.verify", job, root)
	verr := analyze.Verify(run)
	t.end(id)
	id = t.begin("whatif.predict", job, root)
	preds, err := whatif.PredictMatrix(events, panel, workers)
	t.end(id)
	t.end(root)
	out.seconds = time.Since(t0).Seconds()
	if err != nil {
		return out, fmt.Errorf("predicting %s: %w", job, err)
	}
	if verr != nil {
		out.problems = append(out.problems, "analyze.Verify: "+verr.Error())
	}
	out.batches = len(events)
	out.predicted = len(preds)
	sort.Slice(preds, func(a, b int) bool { return preds[a].Scenario.Name < preds[b].Scenario.Name })
	h := sha256.New()
	for _, p := range preds {
		fmt.Fprintf(h, "%s %s %s\n", p.Scenario.Name, bits(p.PredictedTotalUs), bits(p.PredictedWiredUs))
		for _, b := range p.Batches {
			fmt.Fprintf(h, "%d %s\n", b.Batch, bits(b.PredictedUs))
		}
		if p.Scenario.Name != "identity" {
			continue
		}
		for _, b := range p.Batches {
			if b.PredictedUs != b.RecordedUs {
				out.problems = append(out.problems, fmt.Sprintf("identity replay of batch %d: %v µs, recorded %v", b.Batch, b.PredictedUs, b.RecordedUs))
				break
			}
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

func bits(f float64) string { return strconv.FormatUint(math.Float64bits(f), 16) }

func runReplay(cfg config, rep *report) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // single-threaded, as runSessions
	want, err := loadExpected()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x7e91))
	order := rng.Perm(len(replayLogs))
	panels := make([][]whatif.Scenario, len(replayLogs))
	for i, l := range replayLogs {
		p := scenarios(l.workers)
		rng.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		panels[i] = p
	}
	fmt.Fprintf(cfg.out, "replay: record then replay %d logs (%d wired steps each), order", len(replayLogs), replaySteps)
	for _, i := range order {
		fmt.Fprintf(cfg.out, " %s (%d scenarios)", replayLogs[i].name(), len(panels[i]))
	}
	fmt.Fprintln(cfg.out)

	// Set-up: record and replay every log's shape at test scale.
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		runtime.GC()
		t0 := time.Now()
		for _, i := range order {
			l := replayLogs[i]
			l.batch, l.tiny = 4, true
			rec, err := record(nil, l)
			if err != nil {
				return err
			}
			if _, err := replay(nil, l.name(), rec.log, panels[i]); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	pass := func(t *tracer) (map[string]sessionSample, map[string]replayed, error) {
		recs := map[string]sessionSample{}
		reps := map[string]replayed{}
		for _, i := range order {
			l := replayLogs[i]
			rec, err := record(t, l)
			if err != nil {
				return nil, nil, err
			}
			rp, err := replay(t, l.name(), rec.log, panels[i])
			if err != nil {
				return nil, nil, err
			}
			recs[l.name()], reps[l.name()] = rec.sample, rp
		}
		return recs, reps, nil
	}
	check := func(prefix string, recs map[string]sessionSample, reps map[string]replayed) {
		for _, i := range order {
			name := replayLogs[i].name()
			rep.check(prefix+"record "+name, append(recs[name].problems, want.checkSession("replay", name, recs[name])...)...)
			problems := reps[name].problems
			if d, ok := want.Replay[name]; !ok || d != reps[name].digest {
				problems = append(problems, fmt.Sprintf("prediction digest %s, expected %q", reps[name].digest, d))
			}
			rep.check(prefix+"replay "+name, problems...)
		}
	}

	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	recSamples := map[string][]sessionSample{}
	repSamples := map[string][]float64{}
	last := map[string]replayed{}
	for n := 0; ; n++ {
		t0 := time.Now()
		recs, reps, err := pass(nil)
		if err != nil {
			return err
		}
		check("", recs, reps)
		for name, s := range recs {
			recSamples[name] = append(recSamples[name], s)
			repSamples[name] = append(repSamples[name], reps[name].seconds)
			last[name] = reps[name]
		}
		if time.Now().Add(time.Since(t0)).After(deadline) {
			break
		}
	}
	specs := make([]sessionSpec, len(replayLogs))
	for i, l := range replayLogs {
		specs[i] = l.sessionSpec
	}
	summary := func(recSamples map[string][]sessionSample, repSamples map[string][]float64) sessionSummary {
		s := summarize(specs, recSamples)
		var jobs []float64
		for _, l := range replayLogs {
			jobs = append(jobs, median(repSamples[l.name()]))
		}
		s.jobP50ms, s.jobMaxMs = 1000*median(jobs), 1000*quantile(jobs, 1)
		s.jobsPerS = float64(len(jobs)) / sum(jobs)
		return s
	}
	e2e := summary(recSamples, repSamples)
	fmt.Fprintf(cfg.out, "%-24s %8s %9s %7s %14s %9s %9s\n", "log", "wire_s", "replay_s", "trials", "sim_step_us", "events", "log_mb")
	for _, l := range replayLogs {
		ss := recSamples[l.name()]
		fmt.Fprintf(cfg.out, "%-24s %8.3f %9.4f %7d %14.6g %9d %9.2f  (%d runs)\n", l.name(),
			median(pick(ss, func(s sessionSample) float64 { return s.wireS })), median(repSamples[l.name()]),
			ss[0].trials, ss[0].simUs, last[l.name()].batches, float64(last[l.name()].eventBytes)/mb, len(ss))
	}
	if !cfg.trace {
		rep.set("setup_s", median(setups), "s")
		e2e.set(rep)
		return nil
	}

	t := newTracer()
	r0 := readRuntime()
	recs, reps, err := pass(t)
	if err != nil {
		return err
	}
	r1 := readRuntime()
	check("traced ", recs, reps)
	tracedRec := map[string][]sessionSample{}
	tracedRep := map[string][]float64{}
	eventBytes, predicted := 0, 0
	for name, s := range recs {
		tracedRec[name] = []sessionSample{s}
		tracedRep[name] = []float64{reps[name].seconds}
		eventBytes += reps[name].eventBytes
		predicted += reps[name].predicted
	}
	traced := summary(tracedRec, tracedRep)
	rows, total := t.ledger("replay", "")
	printLedger(cfg.out, "replay (decode, analyze, what-if)", rows, total)
	wireRows, wireTotal := t.ledger("wire", "")
	printLedger(cfg.out, "replay recording wire_s", wireRows, wireTotal)
	rep.set("obs.read_events_s", rows["obs.read_events"], "s")
	rep.set("obs.events_mb", float64(eventBytes)/mb, "MB")
	rep.set("analyze.run_s", rows["analyze.run"], "s")
	rep.set("analyze.verify_s", rows["analyze.verify"], "s")
	rep.set("whatif.predict_s", rows["whatif.predict"], "s")
	rep.set("whatif.scenarios", float64(predicted), "count")
	rep.set("models.build_s", wireRows["models.build"], "s")
	other := total
	for _, v := range rows {
		other -= v
	}
	rep.set("ledger.other_s", other, "s")
	rep.set("ledger.other_pct", pct(other, total), "%")
	setRuntime(rep, r0, r1, r1.heapBytes)
	setOverhead(cfg, rep, e2e.wireS, traced.wireS, e2e.jobP50ms, traced.jobP50ms)
	if traced.trials != e2e.trials || traced.simUs != e2e.simUs {
		rep.check("traced vs untraced", fmt.Sprintf("traced run found %d trials / %v µs, untraced %d / %v",
			traced.trials, traced.simUs, e2e.trials, e2e.simUs))
	} else {
		rep.check("traced vs untraced")
	}
	path, err := t.write(cfg.outDir, "replay", cfg.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if path != "" {
		fmt.Fprintf(cfg.out, "spans written to %s (%d spans)\n", path, len(t.spans))
	}
	return nil
}
