package wire

import (
	"bytes"
	"testing"

	"astra/internal/gpusim"
	"astra/internal/obs"
	"astra/internal/spec"
)

// TestBuildStampsItsSpec pins the stamping round trip: the spec a session
// stamps on its events is exactly the spec it was built from, for every
// zoo model at both scales, every preset, and one and two workers. -short
// keeps the tiny scale only (a default-scale build takes most of a second).
func TestBuildStampsItsSpec(t *testing.T) {
	scales := []string{spec.ScaleTiny, spec.ScaleDefault}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, model := range spec.Models() {
		model := model
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			for _, scale := range scales {
				for _, level := range spec.Levels() {
					preset, _ := spec.PresetFor(level)
					for _, workers := range []int{1, 2} {
						sp := spec.New(model, scale, 2, preset)
						if workers == 2 {
							sp.Workers, sp.Fabric = 2, "nvlink1"
						}
						s, err := Build(sp, func(cfg *SessionConfig) { cfg.SkipVerify = true })
						if err != nil {
							t.Fatalf("Build(%+v): %v", sp, err)
						}
						if got := s.Spec(); got != sp {
							t.Errorf("stamped %+v, built from %+v", got, sp)
						}
					}
				}
			}
		})
	}
}

// TestStockSpecIsP100 pins spec.New's cost constants to the simulated
// device they describe.
func TestStockSpecIsP100(t *testing.T) {
	sp := spec.New("scrnn", spec.ScaleTiny, 2, spec.PresetF)
	dev := gpusim.P100()
	if sp.Seed != dev.Seed || sp.LaunchOverheadUs != dev.LaunchOverheadUs || sp.KernelSetupUs != dev.KernelSetupUs {
		t.Fatalf("stock spec %+v does not match the P100 %+v", sp, dev)
	}
	if cfg := Config(sp); cfg.Device != dev {
		t.Fatalf("stock Config device %+v, want the P100 %+v", cfg.Device, dev)
	}
}

// TestEventsCarryTheSpec: every event-log record carries the session's
// spec, and a noisy device or a hand-sized model is described as such.
func TestEventsCarryTheSpec(t *testing.T) {
	sp := spec.New("sublstm", spec.ScaleTiny, 2, spec.PresetF)
	sp.Workers, sp.Fabric = 2, "pcie3"
	s, err := Build(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tel := obs.NewTelemetry()
	tel.SetEventSink(&buf)
	s.Instrument(tel)
	s.Explore()
	s.Step()
	events, err := obs.ReadTrialEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("%d events", len(events))
	}
	for _, ev := range events {
		if ev.Spec != sp {
			t.Fatalf("batch %d carries %+v, want %+v", ev.Batch, ev.Spec, sp)
		}
	}

	if _, err := Build(spec.New("resnet", spec.ScaleTiny, 2, spec.PresetF), nil); err == nil {
		t.Fatal("Build accepted an unknown model")
	}

	m := s.Model
	cfg := Config(sp)
	cfg.Device.Autoboost = true
	m.Cfg.Hidden++ // no longer a zoo config
	got := NewSession(m, cfg).Spec()
	if !got.Noisy || got.Scale != spec.ScaleCustom {
		t.Fatalf("noisy hand-sized session stamped %+v", got)
	}
}
