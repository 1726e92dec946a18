// Command astra-serve runs the Astra exploration service: an HTTP/JSON
// daemon that accepts wiring jobs from many tenants, explores each on the
// simulated substrate with the wire.Session machinery, and streams back
// convergence events and the wired schedule. All sessions share one fleet
// profile store, so a shape any tenant has explored warm-starts every
// later submission of it — from any tenant — with an identical result.
//
// Usage:
//
//	astra-serve -addr 127.0.0.1:7411
//	astra-serve -inflight 8 -queue 128 -max-store-keys 262144
//	astra-serve -profile-in fleet.json -profile-out fleet.json
//	astra-serve -smoke            # self-contained load test, then exit
//
// API (see docs/SERVE.md):
//
//	POST /v1/jobs     {"tenant":"alice","model":"sublstm","level":"FK"}
//	                  → NDJSON event stream (?stream=0 for one JSON result)
//	GET  /v1/stats    server stats        GET /v1/profile   store snapshot
//	GET  /metrics     Prometheus text     POST /v1/profile  snapshot import
//	GET  /healthz     liveness (503 while draining)
//
// SIGINT/SIGTERM triggers a graceful drain: new jobs are refused, queued
// jobs bounce, in-flight sessions finish, then the store is snapshotted to
// -profile-out if set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"astra/internal/atomicfile"
	"astra/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(os.Args[1:], ctx, os.Stdout, os.Stderr))
}

// run is main minus the process concerns: ctx cancellation plays the role
// of SIGINT/SIGTERM, and the exit status is returned instead of exited.
func run(args []string, ctx context.Context, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("astra-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7411", "listen address")
	inflight := fs.Int("inflight", 4, "max concurrently exploring sessions")
	queue := fs.Int("queue", 64, "max queued jobs waiting for a session slot (negative: no queue)")
	maxKeys := fs.Int("max-store-keys", 1<<18, "fleet profile store key ceiling (LRU signature eviction above it)")
	profileIn := fs.String("profile-in", "", "seed the fleet store from this snapshot at startup")
	profileOut := fs.String("profile-out", "", "write the fleet store snapshot here on shutdown")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight sessions on shutdown")
	smoke := fs.Bool("smoke", false, "run the built-in load smoke against an ephemeral instance and exit")
	smokeTenants := fs.Int("smoke-tenants", 8, "smoke: concurrent tenants")
	smokeJobs := fs.Int("smoke-jobs", 3, "smoke: jobs per tenant")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	s := serve.NewServer(serve.Config{
		MaxInFlight:  *inflight,
		MaxQueue:     *queue,
		MaxStoreKeys: *maxKeys,
	})
	if *profileIn != "" {
		f, err := os.Open(*profileIn)
		if err != nil {
			return fail(stderr, err)
		}
		err = s.Fleet().Load(f)
		f.Close()
		if err != nil {
			return fail(stderr, fmt.Errorf("seeding fleet store: %w", err))
		}
		fmt.Fprintf(stdout, "astra-serve: seeded fleet store with %d measurements from %s\n", s.Fleet().Len(), *profileIn)
	}

	if *smoke {
		if err := runSmoke(s, *smokeTenants, *smokeJobs, *drainTimeout, stdout); err != nil {
			return fail(stderr, err)
		}
		return 0
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(stderr, err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(stdout, "astra-serve: listening on http://%s (inflight %d, queue %d, store ceiling %d keys)\n",
		ln.Addr(), *inflight, *queue, *maxKeys)

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	select {
	case err := <-done:
		return fail(stderr, err)
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "astra-serve: draining (in-flight sessions finish, queued jobs bounce)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "astra-serve: drain incomplete: %v\n", err)
	}
	_ = httpSrv.Shutdown(dctx)
	if *profileOut != "" {
		if err := saveSnapshot(s, *profileOut); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "astra-serve: fleet store (%d measurements) saved to %s\n", s.Fleet().Len(), *profileOut)
	}
	st := s.StatsSnapshot()
	fmt.Fprintf(stdout, "astra-serve: served %d jobs (%d warm hits, %d cold), %d signatures, clean shutdown\n",
		int(st.Completed), int(st.WarmHits), int(st.WarmMisses), len(st.Signatures))
	return 0
}

// saveSnapshot replaces the snapshot at path crash-safely: a failed save
// leaves the previous snapshot, the fleet's only durable state, intact.
func saveSnapshot(s *serve.Server, path string) error {
	return atomicfile.WriteFile(path, s.Fleet().Save)
}

// runSmoke spins the server on an ephemeral port, drives the standard load
// mix through the real HTTP stack twice (cold pass, then a fully-warm
// repeat), checks the serving guarantees and drains. An error means a
// violated guarantee — this is the CI gate.
func runSmoke(s *serve.Server, tenants, jobs int, drainTimeout time.Duration, stdout io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "astra-serve: smoke on %s — %d tenants x %d jobs, two passes\n", base, tenants, jobs)

	cl := &serve.Client{BaseURL: base, Stream: true}
	cfg := serve.LoadConfig{Tenants: tenants, JobsPerTenant: jobs}
	var total, warm int
	for pass := 1; pass <= 2; pass++ {
		rep, err := serve.RunLoad(context.Background(), cl, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  pass %d: %d/%d completed, %d warm hits (rate %.2f), %d trials, max warm delta %.4f%%\n",
			pass, rep.Completed, rep.Submitted, rep.WarmHits, rep.HitRate, rep.Trials, rep.MaxWarmDeltaPct)
		if rep.Completed != rep.Submitted {
			return fmt.Errorf("smoke pass %d: %d of %d jobs did not complete (%d queue-full, %d errors: %s)",
				pass, rep.Submitted-rep.Completed, rep.Submitted, rep.RejectedQueueFull, rep.Errors, rep.FirstError)
		}
		if rep.GateViolations > 0 || rep.MaxWarmDeltaPct > 0.1 {
			return fmt.Errorf("smoke pass %d: warm results drifted (max %.4f%%, %d gate violations)",
				pass, rep.MaxWarmDeltaPct, rep.GateViolations)
		}
		if pass == 2 && rep.HitRate != 1 {
			return fmt.Errorf("smoke pass 2: hit rate %.2f, want 1.0 (fully warm repeat)", rep.HitRate)
		}
		total += rep.Completed
		warm += rep.WarmHits
	}
	if warm == 0 {
		return errors.New("smoke: no warm hits across both passes")
	}

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		return fmt.Errorf("smoke: drain failed: %w", err)
	}
	if _, err := cl.Submit(context.Background(), serve.Job{Model: "sublstm"}, nil); !errors.Is(err, serve.ErrDraining) {
		return fmt.Errorf("smoke: post-drain submit error = %v, want ErrDraining", err)
	}
	_ = httpSrv.Shutdown(dctx)
	fmt.Fprintf(stdout, "astra-serve: smoke OK — %d jobs, %d warm hits (rate %.2f), clean drain\n",
		total, warm, float64(warm)/float64(total))
	return nil
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "astra-serve: %v\n", err)
	return 1
}
