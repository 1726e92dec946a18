package wire

import (
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/spec"
)

// Config returns the session configuration a spec names: the P100 device
// carrying the spec's seed and cost constants, its preset with the stream
// override, the runner's per-op CPU cost and, for two or more workers, the
// ring exchange over the spec's fabric. The model fields matter only to
// Build. Config neither validates (an unknown fabric leaves the exchange
// without link constants) nor enables noise.
func Config(sp spec.Spec) SessionConfig {
	dev := gpusim.P100()
	dev.Seed = sp.Seed
	dev.LaunchOverheadUs = sp.LaunchOverheadUs
	dev.KernelSetupUs = sp.KernelSetupUs
	opts := enumerate.PresetOptions(enumerate.Preset(sp.Preset))
	opts.NumStreams = sp.Streams
	var comm CommConfig
	if sp.Workers >= 2 {
		ic, _ := spec.FabricByName(sp.Fabric)
		comm = CommConfig{
			Workers:    sp.Workers,
			BytesPerUs: ic.BytesPerUs,
			LatencyUs:  ic.LatencyUs,
			Fabric:     sp.Fabric,
		}
		opts.CommAdapt = true
		opts.Workers = sp.Workers
	}
	return SessionConfig{
		Device:  dev,
		Options: opts,
		Runner:  RunnerConfig{PerOpCPUUs: sp.PerOpCPUUs},
		Comm:    comm,
	}
}

// Build compiles the session a spec names: the zoo model at the spec's
// scale under Config. with, when non-nil, adjusts the configuration first
// (a shared profile index, a profile context, a cost-model prior). Build
// rejects an invalid spec.
func Build(sp spec.Spec, with func(*SessionConfig)) (*Session, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	cfg := Config(sp)
	if with != nil {
		with(&cfg)
	}
	build, _ := models.Get(sp.Model)
	mc := models.DefaultConfig(sp.Model, sp.Batch)
	if sp.Scale == spec.ScaleTiny {
		mc = models.TinyConfig(sp.Model, sp.Batch)
	}
	return NewSession(build(mc), cfg), nil
}

// Spec returns the spec the session stamps on its event-log records.
func (s *Session) Spec() spec.Spec { return s.spec }

// stamp derives the spec of a session from what it was built with, so a
// session built by hand is described as faithfully as one from Build (and
// one from Build stamps exactly the spec it was built from).
func stamp(m *models.Model, cfg SessionConfig) spec.Spec {
	sp := spec.Spec{
		Model: m.Name, Scale: modelScale(m), Batch: m.Cfg.Batch,
		Preset: cfg.Options.Preset, Streams: cfg.Options.NumStreams,
		Seed: cfg.Device.Seed, PerOpCPUUs: cfg.Runner.PerOpCPUUs,
		LaunchOverheadUs: cfg.Device.LaunchOverheadUs, KernelSetupUs: cfg.Device.KernelSetupUs,
		Workers: 1, Noisy: cfg.Device.Autoboost || cfg.Device.Faults.Enabled(),
	}
	if cfg.Comm.Enabled() {
		sp.Workers = cfg.Comm.Workers
		sp.Fabric = cfg.Comm.Fabric
	}
	return sp
}

// modelScale classifies how a model was sized relative to the zoo's
// canonical configurations: "default" (§6.1 evaluation scale), "tiny" (the
// test scale), or "custom" for hand-built configs a spec cannot rebuild.
// The comparison ignores the RNG seed — it sizes nothing.
func modelScale(m *models.Model) string {
	if _, ok := models.Get(m.Name); !ok {
		return spec.ScaleCustom // hand-built cell, no canonical config to compare to
	}
	for _, c := range []struct {
		scale string
		cfg   models.Config
	}{
		{spec.ScaleDefault, models.DefaultConfig(m.Name, m.Cfg.Batch)},
		{spec.ScaleTiny, models.TinyConfig(m.Name, m.Cfg.Batch)},
	} {
		if c.cfg.Seed = m.Cfg.Seed; c.cfg == m.Cfg {
			return c.scale
		}
	}
	return spec.ScaleCustom
}
