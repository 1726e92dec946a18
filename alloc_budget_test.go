package astra

// Allocation budgets for the simulator/profile hot path. The pooled event
// machinery (gpusim free-lists, head-index stream queues, reusable dispatch
// state) and the sharded profile index are supposed to keep the inner loop
// almost allocation-free at steady state; these tests pin that property so
// a regression fails `go test` rather than quietly showing up as GC time.
// Budgets carry headroom over the measured steady state (recorded in
// docs/PERFORMANCE.md) — they catch structural regressions, not noise.

import (
	"testing"

	"astra/internal/costmodel"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/kernels"
	"astra/internal/models"
	"astra/internal/profile"
	"astra/internal/spec"
	"astra/internal/wire"
)

// TestSimulatorBatchAllocBudget drives a 200-kernel two-stream batch with
// cross-stream events through Reset/Launch/Synchronize. After the pools
// warm up, a whole batch must stay within a handful of allocations
// (measured steady state: ~0 per batch).
func TestSimulatorBatchAllocBudget(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.P100())
	dev.EnsureStreams(2)
	spec := kernels.GEMM(kernels.CuBLAS, kernels.GEMMShape{M: 64, K: 512, N: 512})
	batch := func() {
		dev.Reset()
		for i := 0; i < 200; i++ {
			s := i % 2
			dev.Launch(s, spec)
			if i%16 == 15 {
				ev := dev.RecordEvent(s)
				dev.WaitEvent(1-s, ev)
			}
		}
		dev.Synchronize()
	}
	batch() // size the pools
	batch()
	avg := testing.AllocsPerRun(20, batch)
	const budget = 32.0 // per 200-kernel batch
	if avg > budget {
		t.Errorf("simulator batch allocates %.1f/run, budget %.0f", avg, budget)
	}
	reused, allocated := dev.PoolCounters()
	if reused == 0 || reused < allocated {
		t.Errorf("pools not reusing: reused=%d allocated=%d", reused, allocated)
	}
}

// TestProfileRecordAllocBudget pins the index write path: recording into
// existing keys must not allocate (measured steady state: 0).
func TestProfileRecordAllocBudget(t *testing.T) {
	ix := profile.NewIndex()
	keys := []profile.Key{
		profile.K("ctx", "v0", "a"), profile.K("ctx", "v0", "b"),
		profile.K("ctx", "v1", "a"), profile.K("ctx", "v1", "b"),
	}
	for _, k := range keys {
		ix.Record(k, 100)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i, k := range keys {
			ix.Record(k, float64(100+i))
		}
	})
	if avg > 1 {
		t.Errorf("Record allocates %.1f per 4-key round, budget 1", avg)
	}
}

// TestWiredStepAllocBudget pins the full wired mini-batch (dispatch + DES
// simulation) for the paper-scale subLSTM. Measured steady state is 2
// allocations per step now that wired steps replay one lowered schedule
// (~2.3k before that, ~13.3k before pooling); the budget fails the test if
// the hot path regresses toward the old profile.
func TestWiredStepAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a paper-scale model")
	}
	build, _ := models.Get("sublstm")
	m := build(models.DefaultConfig("sublstm", 16))
	s := wire.NewSession(m, wire.SessionConfig{
		Device:  gpusim.P100(),
		Options: enumerate.PresetOptions(enumerate.PresetFK),
		Runner:  wire.RunnerConfig{PerOpCPUUs: 2},
	})
	s.Explore()
	s.Step()
	avg := testing.AllocsPerRun(10, func() { s.Step() })
	const budget = 4000.0
	if avg > budget {
		t.Errorf("wired step allocates %.0f/run, budget %.0f", avg, budget)
	}
}

// TestCostModelPredictAllocBudget pins the cost-model prediction hot path:
// once trained, Predict hashes feature tuples straight into the bucket
// table and must not allocate at all (measured steady state: 0). The
// explorer consults it once per (variable, context), but the serve layer's
// shared models field many concurrent sessions — a per-call allocation
// here becomes fleet-wide GC pressure.
func TestCostModelPredictAllocBudget(t *testing.T) {
	m := costmodel.NewModel()
	meta := spec.Spec{Model: "sublstm", Scale: "default", Batch: 16, Workers: 4, Fabric: "pcie3"}
	labels := []string{"1", "2", "4", "8"}
	for _, l := range labels {
		m.Observe(meta, "g0.chunk", l, 100)
	}
	cold := spec.Spec{Model: "unseen", Batch: 64}
	avg := testing.AllocsPerRun(100, func() {
		for _, l := range labels {
			m.Predict(meta, "g0.chunk", l)  // L0 hit
			m.Predict(cold, "g0.chunk", l)  // L2 backoff
			m.Predict(cold, "mystery.x", l) // full miss
		}
	})
	if avg > 0 {
		t.Errorf("Predict allocates %.1f per 12-call round, budget 0", avg)
	}
}
