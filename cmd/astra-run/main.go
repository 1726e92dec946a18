// Command astra-run trains one zoo model end-to-end with a chosen
// dispatcher and prints a timing/exploration report.
//
// Usage:
//
//	astra-run -model sublstm -batch 16 -level All
//	astra-run -model stackedlstm -dispatcher cudnn
//	astra-run -model scrnn -dispatcher native
//	astra-run -model sublstm -trace-out session.json -events-out trials.jsonl -metrics
//	astra-run -model scrnn -workers 4 -fabric nvlink1
//
// With -trace-out the whole session (every exploration trial plus the
// wired batches) exports as one multi-track Chrome/Perfetto trace: device
// streams, launch queues, the CPU dispatch timeline and the exploration
// counter tracks. -events-out writes one JSONL record per mini-batch, and
// -metrics prints the Prometheus text exposition at exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"astra"
	"astra/internal/atomicfile"
	"astra/internal/baselines"
	"astra/internal/distsim"
	"astra/internal/gpusim"
)

func main() {
	model := flag.String("model", "sublstm", "model: "+strings.Join(astra.ModelNames(), ", "))
	batch := flag.Int("batch", 16, "mini-batch size")
	level := flag.String("level", "All", "adaptation level for the astra dispatcher: F, FK, FKS, All")
	dispatcher := flag.String("dispatcher", "astra", "astra, native, tf, xla or cudnn")
	batches := flag.Int("steps", 3, "post-exploration mini-batches to run")
	report := flag.Bool("report", false, "print the wired schedule report (astra dispatcher only)")
	traceOut := flag.String("trace-out", "", "write the session-wide multi-track Chrome/Perfetto trace to this file")
	eventsOut := flag.String("events-out", "", "write the JSONL exploration event log to this file")
	metrics := flag.Bool("metrics", false, "print the Prometheus metrics exposition at exit")
	timeline := flag.String("timeline", "", "write a Chrome trace of the last mini-batch only (device view)")
	jitter := flag.Float64("jitter", 0, "autoboost clock-jitter amplitude (e.g. 0.08); >0 leaves autoboost on")
	samples := flag.Int("samples", 1, "measurements per configuration before a choice can freeze")
	driftAt := flag.Int("drift-at", 0, "inject a sustained clock throttle from this batch on and enable the drift watchdog")
	workers := flag.Int("workers", 1, "data-parallel workers; >=2 simulates a multi-GPU session with explored gradient bucketing (astra dispatcher only)")
	fabric := flag.String("fabric", "pcie3", "gradient-exchange interconnect for -workers >= 2: pcie3 or nvlink1")
	flag.Parse()

	m, err := astra.BuildModel(*model, astra.ModelConfig{Batch: *batch})
	if err != nil {
		fail(err)
	}
	fmt.Printf("model %s: %d graph nodes, %d GEMMs, batch %d\n", m.Name(), m.Nodes(), m.GEMMs(), *batch)

	switch *dispatcher {
	case "astra":
		opts := astra.Options{
			Level:   astra.Level(*level),
			Jitter:  *jitter,
			Samples: *samples,
			Workers: *workers,
			Fabric:  *fabric,
		}
		if *workers >= 2 {
			if _, ok := distsim.FabricByName(*fabric); !ok {
				fail(fmt.Errorf("unknown fabric %q (have pcie3, nvlink1)", *fabric))
			}
			fmt.Printf("data-parallel: %d workers over %s, per-device batch %d\n",
				*workers, *fabric, *batch)
		}
		if *driftAt > 0 {
			opts.Watchdog = true
			opts.Faults.ThrottleStartBatch = *driftAt
		}
		runAstra(m, opts, *batches, *report, *traceOut, *eventsOut, *metrics, *timeline)
	case "native", "tf":
		fw := baselines.PyTorch()
		if *dispatcher == "tf" {
			fw = baselines.TensorFlow()
		}
		for i := 0; i < *batches; i++ {
			res := baselines.RunNative(m.Internal().G, gpusim.NewDevice(gpusim.P100()), fw, nil, nil)
			fmt.Printf("  step %d: %.0f us (%d kernels)\n", i+1, res.TimeUs, res.Kernels)
		}
	case "xla":
		for i := 0; i < *batches; i++ {
			res := baselines.RunXLA(m.Internal().G, gpusim.NewDevice(gpusim.P100()), nil, nil)
			fmt.Printf("  step %d: %.0f us (%d kernels)\n", i+1, res.TimeUs, res.Kernels)
		}
	case "cudnn":
		for i := 0; i < *batches; i++ {
			res, ok := baselines.RunCuDNN(m.Internal(), gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
			if !ok {
				fmt.Fprintf(os.Stderr, "astra-run: cuDNN has no kernels for %s (long-tail model)\n", m.Name())
				os.Exit(1)
			}
			fmt.Printf("  step %d: %.0f us (%d kernels)\n", i+1, res.TimeUs, res.Kernels)
		}
	default:
		fmt.Fprintf(os.Stderr, "astra-run: unknown dispatcher %q\n", *dispatcher)
		os.Exit(1)
	}
}

func runAstra(m *astra.Model, opts astra.Options, batches int, report bool, traceOut, eventsOut string, metrics bool, timeline string) {
	sess := astra.Compile(m, opts)

	// Telemetry must attach before Explore so the trace and event log
	// cover every exploration trial.
	observing := traceOut != "" || eventsOut != "" || metrics
	if observing {
		tel := sess.Instrument()
		if eventsOut != "" {
			f, err := atomicfile.Create(eventsOut)
			if err != nil {
				fail(err)
			}
			pendingEvents = f
			tel.SetEventSink(f)
		}
	}

	stats := sess.Explore()
	if err := sess.Err(); err != nil {
		fail(fmt.Errorf("exploration failed: %w", err))
	}
	fmt.Printf("explored %d configurations across %d allocation strategies\n",
		stats.Configs, stats.AllocStrategies)
	fmt.Printf("wired mini-batch: %.0f us (native PyTorch: %.0f us) -> speedup %.2fx\n",
		stats.WiredBatchUs, stats.NativeBatchUs, stats.Speedup)
	if stats.Workers > 1 {
		fmt.Printf("cluster step (%d workers): %.0f us, gradient exchange %.0f us link-busy\n",
			stats.Workers, stats.WiredBatchUs, stats.CommUs)
	}
	fmt.Printf("always-on profiling overhead: %.3f%%\n", stats.ProfilingOverhead*100)
	for i := 0; i < batches; i++ {
		fmt.Printf("  step %d: %.0f us\n", i+1, sess.Step())
		if !sess.Done() {
			// A drift event thawed the explorer mid-wired-phase:
			// re-explore in-session and continue wired.
			fmt.Printf("  drift detected -> re-exploring\n")
			re := sess.Explore()
			if err := sess.Err(); err != nil {
				fail(fmt.Errorf("re-exploration failed: %w", err))
			}
			fmt.Printf("  re-wired after %d total configurations: %.0f us\n",
				re.Configs, re.WiredBatchUs)
		}
	}
	if n := sess.DriftEvents(); n > 0 {
		fmt.Printf("drift events: %d\n", n)
	}
	if report {
		fmt.Println()
		fmt.Print(sess.Internal().Report())
	}

	ws := sess.Internal()
	if observing {
		ws.CloseTelemetry()
		tel := sess.Telemetry()

		// End-of-run metrics summary: the §6.4 check over the whole
		// session, exploration included.
		overheadPct := 0.0
		if ws.ClockUs > 0 {
			overheadPct = ws.ProfOverheadUs / ws.ClockUs * 100
		}
		fmt.Printf("\ntelemetry summary: %d batches (%d exploration trials), %.0f us simulated\n",
			ws.Batches, ws.Trials, ws.ClockUs)
		fmt.Printf("profiling overhead: %.0f us = %.3f%% of total simulated time\n",
			ws.ProfOverheadUs, overheadPct)
		fmt.Printf("profile index: %d entries, hit rate %.2f\n", ws.Ix.Len(), ws.Ix.HitRate())

		if traceOut != "" {
			if err := atomicfile.WriteFile(traceOut, tel.Trace.WriteChromeTrace); err != nil {
				fail(err)
			}
			fmt.Printf("session trace written to %s (open in ui.perfetto.dev or chrome://tracing)\n", traceOut)
		}
		if pendingEvents != nil {
			n := tel.Events.Count()
			if err := pendingEvents.Commit(); err != nil {
				fail(err)
			}
			fmt.Printf("event log written to %s (%d records)\n", eventsOut, n)
		}
		if metrics {
			fmt.Println()
			if err := tel.Metrics.WriteProm(os.Stdout); err != nil {
				fail(err)
			}
		}
	}
	if timeline != "" {
		if err := atomicfile.WriteFile(timeline, ws.Runner.Dev.WriteChromeTrace); err != nil {
			fail(err)
		}
		fmt.Printf("last-batch timeline written to %s (open in chrome://tracing)\n", timeline)
	}
}

// pendingEvents is the event log being written; a failed run discards it
// and leaves any previous log at the path in place.
var pendingEvents *atomicfile.File

func fail(err error) {
	if pendingEvents != nil {
		pendingEvents.Abort()
	}
	fmt.Fprintln(os.Stderr, "astra-run:", err)
	os.Exit(1)
}
