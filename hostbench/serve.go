package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"

	"astra/internal/models"
	"astra/internal/serve"
	"astra/internal/wire"
)

// The serve-mix job stream is cut into passes of passJobs jobs. Every base
// shape of serve.DefaultMix appears warmRepeats times warm (its base
// signature, already in the fleet store) and once cold (a fresh batch size,
// so a new signature that explores and writes the store); guidedCold more
// cold jobs, on base shapes taken in rotation, opt into the cost-model
// prior. One job in five is cold.
const (
	serveClients = 2 // closed-loop clients, one per CPU of the reference machine
	serveTenants = 8
	warmRepeats  = 5
	guidedCold   = 2
	priorShare   = 0.25 // share of warm jobs submitted with the prior
	// fixedPasses is the stream prefix the trials and sim_step_us metrics
	// are computed over; every run completes at least it. Each shape's
	// unguided cold jobs in the prefix take one batch size from each of
	// fixedPasses equal strata of 1..maxFreshBatch, so the prefix covers
	// the same range of shapes whatever the seed.
	fixedPasses   = 8
	maxFreshBatch = 512
)

// streamJob is one generated job and where it came from.
type streamJob struct {
	index int
	base  int // index into serve.DefaultMix
	cold  bool
	job   serve.Job
}

// jobStream generates the seeded job stream pass by pass; it is safe for
// the concurrent clients to draw from.
type jobStream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	mix    []serve.Job
	fresh  [][]int // per base shape: unused batch sizes, stratified prefix first
	queue  []streamJob
	next   int
	passes int
	offset int // rotation of the guided cold jobs over the base shapes
}

func newJobStream(seed uint64, mix []serve.Job) *jobStream {
	s := &jobStream{rng: rand.New(rand.NewPCG(seed, 0x5e7e)), mix: mix}
	s.offset = s.rng.IntN(len(mix))
	stratum := maxFreshBatch / fixedPasses
	for _, j := range mix {
		used := map[int]bool{j.Batch: true}
		var sizes []int
		for _, k := range s.rng.Perm(fixedPasses) {
			b := j.Batch
			for used[b] {
				b = k*stratum + 1 + s.rng.IntN(stratum)
			}
			used[b] = true
			sizes = append(sizes, b)
		}
		var rest []int
		for b := 1; b <= maxFreshBatch; b++ {
			if !used[b] {
				rest = append(rest, b)
			}
		}
		s.rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
		s.fresh = append(s.fresh, append(sizes, rest...))
	}
	return s
}

func (s *jobStream) passJobs() int { return len(s.mix)*(1+warmRepeats) + guidedCold }

// freshBatch takes an unused batch size for base shape b: from the front
// for unguided cold jobs, from the back for guided ones, so guided jobs
// never take the stratified prefix.
func (s *jobStream) freshBatch(b int, guided bool) (int, error) {
	f := s.fresh[b]
	if len(f) == 0 {
		return 0, errStreamDone
	}
	if guided {
		s.fresh[b] = f[:len(f)-1]
		return f[len(f)-1], nil
	}
	s.fresh[b] = f[1:]
	return f[0], nil
}

// errStreamDone reports that a base shape has no fresh batch size left: a
// machine fast enough to get there in one run ends the run early.
var errStreamDone = errors.New("job stream has no fresh batch sizes left")

// draw returns the next job of the stream.
func (s *jobStream) draw() (streamJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		var pass []streamJob
		for b, base := range s.mix {
			cold := base
			var err error
			if cold.Batch, err = s.freshBatch(b, false); err != nil {
				return streamJob{}, err
			}
			pass = append(pass, streamJob{base: b, cold: true, job: cold})
			for r := 0; r < warmRepeats; r++ {
				warm := base
				warm.Prior = s.rng.Float64() < priorShare
				pass = append(pass, streamJob{base: b, job: warm})
			}
		}
		for g := 0; g < guidedCold; g++ {
			b := (s.offset + s.passes*guidedCold + g) % len(s.mix)
			cold := s.mix[b]
			var err error
			if cold.Batch, err = s.freshBatch(b, true); err != nil {
				return streamJob{}, err
			}
			cold.Prior = true
			pass = append(pass, streamJob{base: b, cold: true, job: cold})
		}
		s.passes++
		s.rng.Shuffle(len(pass), func(a, b int) { pass[a], pass[b] = pass[b], pass[a] })
		for i := range pass {
			pass[i].job.Tenant = fmt.Sprintf("tenant-%d", s.rng.IntN(serveTenants))
			pass[i].job.Steps = 2 + s.rng.IntN(3)
		}
		s.queue = pass
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	j.index = s.next
	s.next++
	return j, nil
}

// jobRecord is one submitted job as its client saw it, plus — in a traced
// phase — the server-side times of its request.
type jobRecord struct {
	sj           streamJob
	submit, done time.Time // around Client.Submit
	firstWired   time.Time // arrival of the first wired event
	wired        int       // wired events received
	res          *serve.Result
	err          error
	srv          *stamps
}

func (r *jobRecord) latency() time.Duration { return r.done.Sub(r.submit) }

func submit(c *serve.Client, sj streamJob) jobRecord {
	rec := jobRecord{sj: sj, submit: time.Now()}
	ctx := context.WithValue(context.Background(), jobKey{}, sj.index)
	rec.res, rec.err = c.Submit(ctx, sj.job, func(ev serve.Event) {
		if ev.Type != "wired" {
			return
		}
		if rec.wired == 0 {
			rec.firstWired = time.Now()
		}
		rec.wired++
	})
	rec.done = time.Now()
	return rec
}

// reference is a base shape's solo outcome: the same job run on a private
// wire.Session with a fresh profile index.
type reference struct {
	trials  int
	wiredUs float64
}

// serveModel builds a job's model the way astra-serve does.
func serveModel(j serve.Job) *models.Model {
	build, _ := models.Get(j.Model)
	if j.Scale == "default" {
		return build(models.DefaultConfig(j.Model, j.Batch))
	}
	return build(models.TinyConfig(j.Model, j.Batch))
}

// soloReference runs a job on a private wire.Session: the session
// astra-serve builds, without the fleet store, signature context or cost
// model, and with the verifier on.
func soloReference(j serve.Job) (reference, error) {
	sc := sessionConfig(j.Level, j.Streams, j.Workers, j.Fabric)
	sc.SkipVerify = false
	s := wire.NewSession(serveModel(j), sc)
	s.Explore()
	if err := s.Err(); err != nil {
		return reference{}, err
	}
	return reference{trials: s.Trials, wiredUs: s.WiredTimeUs()}, nil
}

func runServeMix(cfg config, rep *report) error {
	var mix []serve.Job
	for _, j := range serve.DefaultMix() {
		n, err := j.Normalize()
		if err != nil {
			return err
		}
		mix = append(mix, n)
	}
	hc := &http.Client{Transport: tagTransport{&http.Transport{MaxIdleConnsPerHost: serveClients}}}
	defer hc.CloseIdleConnections()
	client := &serve.Client{HTTP: hc, Stream: true}

	// Set-up: solo references for the base shapes, a fresh server, and a
	// warm-up pass that explores every base shape cold through HTTP and
	// must reproduce its reference exactly.
	var setups []float64
	var srv *server
	refs := make([]reference, len(mix))
	for r := 0; r < setupRepeats; r++ {
		runtime.GC()
		t0 := time.Now()
		for i, j := range mix {
			ref, err := soloReference(j)
			if err != nil {
				return fmt.Errorf("solo reference %s: %w", j.Signature(), err)
			}
			refs[i] = ref
		}
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		var err error
		if srv, err = startServer(); err != nil {
			return err
		}
		client.BaseURL = srv.url
		for i, j := range mix {
			j.Tenant = "warmup"
			rec := submit(client, streamJob{index: -1, base: i, job: j})
			rep.check("warm-up "+j.Signature(), checkJob(&rec, refs)...)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	stream := newJobStream(cfg.seed, mix)
	fmt.Fprintf(cfg.out, "serve-mix: %d closed-loop clients, %d tenants, passes of %d jobs (%d cold, %d of them prior-guided; %.0f%% of warm jobs prior-guided)\n",
		serveClients, serveTenants, stream.passJobs(), len(mix)+guidedCold, guidedCold, 100*priorShare)
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	minJobs := fixedPasses * stream.passJobs()
	untraced, elapsed, err := serveLoad(client, stream, budget, minJobs)
	if err != nil {
		return err
	}
	for i := range untraced {
		rep.check("job", checkJob(&untraced[i], refs)...)
	}
	sum := summarizeJobs(untraced, elapsed, stream.passJobs())
	sum.print(cfg.out, "untraced")
	if !cfg.trace {
		rep.set("setup_s", median(setups), "s")
		rep.set("wire_s", sum.wireS, "s")
		rep.set("job_p50_ms", sum.p50ms, "ms")
		rep.set("job_p99_ms", sum.p99ms, "ms")
		rep.set("jobs_per_s", sum.jobsPerS, "1/s")
		trials, simUs, err := fixedPrefix(untraced, minJobs, stream.passJobs())
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "per pass over the first %d passes (prior-guided cold jobs left out): trials %v, sim_step_us %v\n",
			fixedPasses, trials, simUs)
		rep.set("trials", trials, "count")
		rep.set("sim_step_us", simUs, "sim_us")
		return nil
	}

	before, err := srv.stats(hc)
	if err != nil {
		return err
	}
	srv.recording.Store(true)
	r0 := readRuntime()
	traced, elapsed, err := serveLoad(client, stream, budget, 0)
	r1 := readRuntime()
	srv.recording.Store(false)
	if err != nil {
		return err
	}
	after, err := srv.stats(hc)
	if err != nil {
		return err
	}
	for i := range traced {
		r := &traced[i]
		rep.check("traced job", checkJob(r, refs)...)
		r.srv = srv.stamped(r.sj.index)
	}
	tsum := summarizeJobs(traced, elapsed, stream.passJobs())
	tsum.print(cfg.out, "traced")
	setRuntime(rep, r0, r1, r1.heapBytes)
	setOverhead(cfg, rep, sum.wireS, tsum.wireS, sum.p50ms, tsum.p50ms)
	return serveLedger(cfg, rep, mix, traced, before, after)
}

// serveLoad runs the closed loop: each client submits its next job as soon
// as the previous one returns, until the budget is spent and at least
// minJobs jobs have been drawn.
func serveLoad(c *serve.Client, stream *jobStream, seconds float64, minJobs int) ([]jobRecord, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var recs []jobRecord
	var firstErr error
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := firstErr != nil || (time.Now().After(deadline) && len(recs) >= minJobs)
				mu.Unlock()
				if stop {
					return
				}
				sj, err := stream.draw()
				if errors.Is(err, errStreamDone) {
					return
				}
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				rec := submit(c, sj)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start), firstErr
}

// checkJob lists what is wrong with a job's outcome: any error; for a base
// shape, a result that differs from its solo reference or (warm) from its
// cold result; for any job, a missing wired step.
func checkJob(r *jobRecord, refs []reference) []string {
	if r.err != nil {
		return []string{r.err.Error()}
	}
	var out []string
	res := r.res
	if r.wired != r.sj.job.Steps {
		out = append(out, fmt.Sprintf("%d wired events for %d steps", r.wired, r.sj.job.Steps))
	}
	if r.sj.cold {
		if res.WarmStart || res.Trials == 0 {
			out = append(out, "fresh signature did not explore cold")
		}
		return out
	}
	ref := refs[r.sj.base]
	if res.WiredUs != ref.wiredUs {
		out = append(out, fmt.Sprintf("wired %v µs, solo reference %v", res.WiredUs, ref.wiredUs))
	}
	if res.WarmStart {
		if res.Trials != 0 || res.WarmDeltaPct != 0 {
			out = append(out, fmt.Sprintf("warm job ran %d trials, warm delta %v%%", res.Trials, res.WarmDeltaPct))
		}
	} else if res.Trials != ref.trials {
		out = append(out, fmt.Sprintf("cold job ran %d trials, solo reference %d", res.Trials, ref.trials))
	}
	return out
}

// jobSummary is the end-to-end view of a set of completed jobs.
type jobSummary struct {
	n, warm, cold        int
	wireS, jobsPerS      float64
	p50ms, p99ms         float64
	warmP50ms, coldP50ms float64
}

// summarizeJobs computes the end-to-end metrics of completed jobs: latency
// percentiles over every job; wire_s as one pass of jobs times the mean
// submit→first-wired-event time; jobs completed per second of the closed
// loop's elapsed time.
func summarizeJobs(recs []jobRecord, elapsed time.Duration, passJobs int) jobSummary {
	var s jobSummary
	var lat, warm, cold []float64
	toWired := 0.0
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		ms := 1000 * r.latency().Seconds()
		lat = append(lat, ms)
		if r.sj.cold {
			cold = append(cold, ms)
		} else {
			warm = append(warm, ms)
		}
		toWired += r.firstWired.Sub(r.submit).Seconds()
	}
	s.n, s.warm, s.cold = len(lat), len(warm), len(cold)
	if s.n == 0 {
		return s
	}
	s.wireS = float64(passJobs) * toWired / float64(s.n)
	s.jobsPerS = float64(s.n) / elapsed.Seconds()
	s.p50ms, s.p99ms = quantile(lat, 0.5), quantile(lat, 0.99)
	s.warmP50ms, s.coldP50ms = quantile(warm, 0.5), quantile(cold, 0.5)
	return s
}

func (s jobSummary) print(w io.Writer, phase string) {
	fmt.Fprintf(w, "%s: %d jobs (%d warm, %d cold), %.1f jobs/s, latency p50 %.2f ms p99 %.2f ms (warm p50 %.2f, cold p50 %.2f), wire_s per pass %.4f\n",
		phase, s.n, s.warm, s.cold, s.jobsPerS, s.p50ms, s.p99ms, s.warmP50ms, s.coldP50ms, s.wireS)
}

// fixedPrefix sums trials and simulated wired µs over the stream's first
// n jobs, per pass. Prior-guided cold jobs are left out: their plans depend
// on the order their tenant's cost model trained in, which the concurrent
// clients do not fix. Every other job's outcome is a function of the seed.
func fixedPrefix(recs []jobRecord, n, passJobs int) (trials, simUs float64, err error) {
	seen := 0
	for i := range recs {
		r := &recs[i]
		if r.sj.index >= n || r.err != nil {
			continue
		}
		seen++
		if r.sj.cold && r.sj.job.Prior {
			continue
		}
		trials += float64(r.res.Trials)
		simUs += r.res.WiredUs
	}
	if seen != n {
		return 0, 0, fmt.Errorf("only %d of the first %d jobs completed", seen, n)
	}
	passes := float64(n / passJobs)
	return trials / passes, simUs / passes, nil
}
