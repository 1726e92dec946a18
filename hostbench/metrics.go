package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
)

// manifest is the part of BENCHMARK.json that names the metrics: the
// end-to-end set an untraced run prints and the per-layer set a traced
// run prints. The benchmark reads it from the working directory (the
// repository root), so the names and units live in one place.
type manifest struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// selected returns exactly the metrics the manifest lists for this kind of
// run. An end-to-end metric the workload did not produce is a bug in the
// benchmark; a per-layer metric of a layer the workload never enters reads
// 0 in the manifest's unit.
func (r *report) selected(trace bool) (map[string]metric, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading the metric manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	want := m.EndToEnd
	if trace {
		want = m.PerLayer
	}
	out := make(map[string]metric, len(want))
	for _, w := range want {
		got, ok := r.metrics[w.Name]
		switch {
		case !ok && !trace:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", w.Name)
		case !ok:
			got = metric{Unit: w.Unit}
		case got.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, got.Unit, w.Unit)
		}
		out[w.Name] = got
	}
	return out, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the Go runtime counters the ledger's runtime row
// uses: cumulative GC CPU, cumulative heap allocation, live heap objects.
type runtimeSample struct {
	gcCPUs     float64
	allocBytes float64
	allocObjs  float64
	heapBytes  float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPUs: val(0), allocBytes: val(1), allocObjs: val(2), heapBytes: val(3)}
}

const mb = 1 << 20

// setRuntime reports the Go runtime's share of a traced phase: GC CPU and
// heap allocated between two samples, and the peak live heap seen.
func setRuntime(rep *report, from, to runtimeSample, heapPeakB float64) {
	rep.set("runtime.gc_cpu_s", to.gcCPUs-from.gcCPUs, "s")
	rep.set("runtime.alloc_mb", (to.allocBytes-from.allocBytes)/mb, "MB")
	rep.set("runtime.heap_peak_mb", max(heapPeakB, to.heapBytes, from.heapBytes)/mb, "MB")
}
