package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"astra/internal/models"
	"astra/internal/serve"
	"astra/internal/verify"
)

// jobKey carries a job's stream index from Client.Submit's context to a
// request header, so the server side can stamp the request it belongs to.
type jobKey struct{}

const jobHeader = "X-Hostbench-Job"

// tagTransport copies the job index from the request context into
// jobHeader.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if idx, ok := r.Context().Value(jobKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(jobHeader, strconv.Itoa(idx))
	}
	return t.base.RoundTrip(r)
}

// stamps are the server-side times of one request: handler entry and exit,
// and when the service wrote each of its NDJSON events.
type stamps struct {
	enter, exit, queued, start, firstTrial, firstWired, last, result time.Time
}

// setupEnd is when the session first reported progress: its first trial,
// or its first wired step when it warm-started.
func (s *stamps) setupEnd() time.Time {
	if !s.firstTrial.IsZero() {
		return s.firstTrial
	}
	return s.firstWired
}

// stampWriter passes the service's response through, noting when each
// event line is written. The service encodes one event per Write.
type stampWriter struct {
	http.ResponseWriter
	st *stamps
}

func (w *stampWriter) Write(p []byte) (int, error) {
	now := time.Now()
	const prefix = `{"type":"`
	if rest, ok := bytes.CutPrefix(p, []byte(prefix)); ok {
		typ, _, _ := bytes.Cut(rest, []byte(`"`))
		switch string(typ) {
		case "queued":
			w.st.queued = now
		case "start":
			w.st.start = now
		case "trial":
			if w.st.firstTrial.IsZero() {
				w.st.firstTrial = now
			}
		case "wired":
			if w.st.firstWired.IsZero() {
				w.st.firstWired = now
			}
			w.st.last = now
		case "result":
			w.st.result = now
		}
	}
	return w.ResponseWriter.Write(p)
}

func (w *stampWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// server is an in-process astra-serve behind a loopback HTTP listener. While
// recording, its handler stamps every tagged request.
type server struct {
	srv       *serve.Server
	http      *http.Server
	url       string
	served    chan error
	recording atomic.Bool
	mu        sync.Mutex
	stamps    map[int]*stamps
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		srv:    serve.NewServer(serve.Config{}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		stamps: map[int]*stamps{},
	}
	inner := s.srv.Handler()
	s.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idx, err := strconv.Atoi(r.Header.Get(jobHeader))
		if !s.recording.Load() || err != nil {
			inner.ServeHTTP(w, r)
			return
		}
		st := &stamps{enter: time.Now()}
		inner.ServeHTTP(&stampWriter{ResponseWriter: w, st: st}, r)
		st.exit = time.Now()
		s.mu.Lock()
		s.stamps[idx] = st
		s.mu.Unlock()
	})}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stamped returns the server-side stamps of job idx (nil if none).
func (s *server) stamped(idx int) *stamps {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stamps[idx]
}

// stop drains the service, closes the listener and waits for Serve to
// return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(s.srv.Shutdown(ctx), s.http.Shutdown(ctx))
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func (s *server) stats(c *http.Client) (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("GET /v1/stats: %d %s", resp.StatusCode, body)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serveLedger attributes the traced jobs' latency to the service's stages
// from the server-side event stamps, splits warm jobs' session set-up with
// probes of the base shapes, and reports the serve.* counters from
// /v1/stats.
func serveLedger(cfg config, rep *report, mix []serve.Job, recs []jobRecord, before, after serve.Stats) error {
	t := newTracer()
	n := 0
	serverSide := 0.0
	for i := range recs {
		r := &recs[i]
		st := r.srv
		if r.err != nil || st == nil {
			continue
		}
		n++
		job := fmt.Sprintf("job-%d", r.sj.index)
		root := t.add("job", job, 0, r.submit, r.done)
		req := t.add("serve.request", job, root, st.enter, st.exit)
		t.add("serve.admission_wait", job, req, st.queued, st.start)
		t.add("serve.setup", job, req, st.start, st.setupEnd())
		if !st.firstTrial.IsZero() {
			t.add("serve.explore", job, req, st.firstTrial, st.firstWired)
		}
		t.add("serve.wired", job, req, st.firstWired, st.last)
		t.add("serve.result", job, req, st.last, st.result)
		serverSide += st.exit.Sub(st.enter).Seconds()
	}
	if n == 0 {
		return errors.New("no traced job was stamped")
	}
	rows, total := t.ledger("job", "")
	accounted := 0.0
	for _, v := range rows {
		accounted += v
	}
	rows["serve.http"] = total - accounted
	printLedger(cfg.out, "serve-mix client latency (serve.http: client RTT minus handler time)", rows, total)
	perJob := func(s float64) float64 { return 1000 * s / float64(n) }
	rep.set("serve.admission_wait_ms", perJob(rows["serve.admission_wait"]), "ms")
	rep.set("serve.setup_ms", perJob(rows["serve.setup"]), "ms")
	rep.set("serve.explore_ms", perJob(rows["serve.explore"]), "ms")
	rep.set("serve.wired_ms", perJob(rows["serve.wired"]+rows["serve.result"]), "ms")
	rep.set("serve.http_ms", perJob(rows["serve.http"]), "ms")

	// Probe the base shapes' session set-up from outside the service,
	// median of probeRepeats runs each (probeSetup). A warm job's set-up
	// stage is what the probe times plus its explorer's warm start, the
	// cost-model planner and event writes, left as "set-up rest". The rows
	// are estimates: the probe runs alone, the job under load.
	const probeRepeats = 5
	probe := newTracer()
	var c layerCounts
	per := make([]map[string]float64, len(mix))
	for b, j := range mix {
		samples := map[string][]float64{}
		for r := 0; r < probeRepeats; r++ {
			job := fmt.Sprintf("base-%d-%d", b, r)
			probeSetup(probe, &c, job, j)
			rows, _ := probe.ledger("setup", job)
			for k, v := range rows {
				samples[k] = append(samples[k], v)
			}
		}
		per[b] = map[string]float64{}
		for k, v := range samples {
			per[b][k] = median(v)
		}
		per[b]["wire.new_session_self"] = per[b]["wire.new_session"] - per[b]["enumerate.probe"]
	}
	all, warm := map[string]float64{}, map[string]float64{}
	warmN, warmSetup, warmServer := 0, 0.0, 0.0
	for i := range recs {
		r := &recs[i]
		if r.err != nil || r.srv == nil {
			continue
		}
		for k, v := range per[r.sj.base] {
			all[k] += v
			if !r.sj.cold {
				warm[k] += v
			}
		}
		if !r.sj.cold {
			warmN++
			warmSetup += r.srv.setupEnd().Sub(r.srv.start).Seconds()
			warmServer += r.srv.exit.Sub(r.srv.enter).Seconds()
		}
	}
	rep.set("models.build_s", all["models.build"], "s")
	rep.set("enumerate.enumerate_s", all["enumerate.probe"], "s")
	rep.set("wire.new_session_self_s", all["wire.new_session_self"], "s")
	rep.set("verify.plan_s", all["verify.plan"], "s")
	rep.set("models.nodes", float64(c.nodes)/probeRepeats, "count")
	rep.set("models.alloc_mb", c.buildAllocB/probeRepeats/mb, "MB")
	rep.set("enumerate.alloc_mb", c.enumAllocB/probeRepeats/mb, "MB")
	fmt.Fprintf(cfg.out, "models.build (probe estimate) is %.2f%% of server-side job time (handler entry to exit, %d jobs)\n",
		pct(all["models.build"], serverSide), n)
	if warmN > 0 {
		ms := func(s float64) float64 { return 1000 * s / float64(warmN) }
		fmt.Fprintf(cfg.out, "warm jobs, server-side ms per job (%d jobs; set-up split by probe):\n", warmN)
		known := warm["models.build"] + warm["wire.new_session"] + warm["verify.plan"] + warm["verify.config"] + warm["wire.batch"]
		for _, row := range []struct {
			name string
			s    float64
		}{
			{"enumerate.enumerate", warm["enumerate.probe"]},
			{"verify.config (first binding)", warm["verify.config"]},
			{"verify.plan", warm["verify.plan"]},
			{"models.build", warm["models.build"]},
			{"wire.batch (first wired step)", warm["wire.batch"]},
			{"wire.new_session_self", warm["wire.new_session_self"]},
			{"set-up rest", warmSetup - known},
			{"rest of request", warmServer - warmSetup},
		} {
			fmt.Fprintf(cfg.out, "  %-34s %8.4f\n", row.name, ms(row.s))
		}
	}

	rep.set("serve.warm_hits", after.WarmHits-before.WarmHits, "count")
	rep.set("serve.warm_misses", after.WarmMisses-before.WarmMisses, "count")
	rep.set("serve.trials", after.Trials-before.Trials, "count")
	rep.set("serve.store_keys", float64(after.StoreKeys), "count")
	rep.set("serve.store_hit_rate", after.FleetHitRate, "ratio")
	rep.set("serve.prior_hits", after.PriorHits-before.PriorHits, "count")
	rep.set("serve.prior_misses", after.PriorMisses-before.PriorMisses, "count")
	rep.set("serve.prior_pruned", after.PriorPruned-before.PriorPruned, "count")
	if after.Aborted != 0 {
		rep.check("server stats", fmt.Sprintf("%v jobs aborted", after.Aborted))
	}
	fmt.Fprintf(cfg.out, "server stats: %v completed, %v warm hits, %v warm misses, %v trials, %d store keys, hit rate %.4f\n",
		after.Completed, after.WarmHits, after.WarmMisses, after.Trials, after.StoreKeys, after.FleetHitRate)
	path, err := t.write(cfg.outDir, "serve-mix", cfg.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if path != "" {
		fmt.Fprintf(cfg.out, "spans written to %s (%d spans)\n", path, len(t.spans))
	}
	return nil
}

// probeSetup times one base shape's session set-up layer by layer
// (tracedSetup), then what a warm job's first wired step adds: the
// configuration check of its first binding and one batch.
func probeSetup(t *tracer, c *layerCounts, job string, j serve.Job) {
	root := t.begin("setup", job, 0)
	sc := sessionConfig(j.Level, j.Streams, j.Workers, j.Fabric)
	s, _, _ := tracedSetup(t, c, job, root, func() *models.Model { return serveModel(j) }, sc)
	id := t.begin("verify.config", job, root)
	verify.CheckConfig(s.Plan, verifySpec(sc))
	t.end(id)
	id = t.begin("wire.batch", job, root)
	s.Runner.RunBatch(nil, nil)
	for _, p := range s.Peers {
		p.RunBatch(nil, nil)
	}
	t.end(id)
	t.end(root)
}
