// Package spec is the one description of "which run is this": the zoo
// model and its scale, the per-device mini-batch, the enumeration preset
// and stream count, the data-parallel worker count and fabric, and the
// simulated cost constants. The paper's §5 profile store works because a
// job is fully identified by exactly this shape.
//
// Every layer speaks it: the wire session stamps its Spec on every
// event-log record, the serve layer namespaces the fleet profile store by
// its Signature, the cost model draws its features from it, and the what-if
// checker rebuilds a recorded session from it (wire.Build). The package is
// a stdlib-only leaf so all of them can import it.
package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Spec identifies one run. The JSON field names are the event log's.
type Spec struct {
	// Model is the zoo model name, Scale how it was sized (ScaleDefault,
	// ScaleTiny, or ScaleCustom for a hand-built config no Spec rebuilds).
	Model string `json:"model,omitempty"`
	Scale string `json:"model_scale,omitempty"`
	// Batch is the per-device mini-batch size.
	Batch int `json:"per_device_batch,omitempty"`
	// Preset is the enumeration preset (PresetF..PresetAll; empty for
	// hand-assembled options), Streams its stream-count override (0 keeps
	// the enumerator's default).
	Preset  string `json:"preset,omitempty"`
	Streams int    `json:"num_streams,omitempty"`
	// Seed, PerOpCPUUs, LaunchOverheadUs and KernelSetupUs are the cost
	// constants the run simulates under.
	Seed             uint64  `json:"seed,omitempty"`
	PerOpCPUUs       float64 `json:"per_op_cpu_us,omitempty"`
	LaunchOverheadUs float64 `json:"launch_overhead_us,omitempty"`
	KernelSetupUs    float64 `json:"kernel_setup_us,omitempty"`
	// Workers is the data-parallel degree (1 for a single GPU), Fabric the
	// gradient-exchange interconnect of a multi-worker run.
	Workers int    `json:"workers,omitempty"`
	Fabric  string `json:"fabric,omitempty"`
	// Noisy marks a run with autoboost jitter or fault injection on. Its
	// timings depend on the noise source, which a Spec does not describe,
	// so it cannot be re-simulated from the Spec alone.
	Noisy bool `json:"noisy,omitempty"`
}

// Model scales: the §6.1 evaluation scale, the test scale, and hand-built.
const (
	ScaleDefault = "default"
	ScaleTiny    = "tiny"
	ScaleCustom  = "custom"
)

// Enumeration presets, as reported in the paper's tables.
const (
	PresetF   = "Astra_F"
	PresetFK  = "Astra_FK"
	PresetFKS = "Astra_FKS"
	PresetAll = "Astra_all"
)

// levels pairs the short level names of the serve and public APIs (and of
// Signature) with the presets they select, in preset order.
var levels = [...]struct{ level, preset string }{
	{"F", PresetF}, {"FK", PresetFK}, {"FKS", PresetFKS}, {"All", PresetAll},
}

// PresetFor returns the preset a level name selects.
func PresetFor(level string) (string, bool) {
	for _, l := range levels {
		if l.level == level {
			return l.preset, true
		}
	}
	return "", false
}

// LevelOf returns the level name of a preset.
func LevelOf(preset string) (string, bool) {
	for _, l := range levels {
		if l.preset == preset {
			return l.level, true
		}
	}
	return "", false
}

// Levels returns the level names, sorted.
func Levels() []string {
	var out []string
	for _, l := range levels {
		out = append(out, l.level)
	}
	sort.Strings(out)
	return out
}

// Presets returns the presets in order, from fusion only to everything.
func Presets() []string {
	var out []string
	for _, l := range levels {
		out = append(out, l.preset)
	}
	return out
}

// zoo lists the model names internal/models registers, sorted; a models
// test pins the two together.
var zoo = []string{"attlstm", "gnmt", "milstm", "rhn", "scrnn", "stackedlstm", "sublstm"}

// Models returns the zoo model names, sorted.
func Models() []string { return append([]string(nil), zoo...) }

// Interconnect is a gradient-exchange fabric.
type Interconnect struct {
	Name string
	// BytesPerUs is the per-link bandwidth (both directions combined).
	BytesPerUs float64
	// LatencyUs is the per-hop latency of one ring step.
	LatencyUs float64
}

// PCIe returns a PCIe-3.0-x16 peer-to-peer fabric (the paper-era default
// for multi-GPU boxes without NVLink).
func PCIe() Interconnect { return Interconnect{Name: "pcie3", BytesPerUs: 11000, LatencyUs: 8} }

// NVLink returns a first-generation NVLink fabric.
func NVLink() Interconnect { return Interconnect{Name: "nvlink1", BytesPerUs: 38000, LatencyUs: 3} }

// RingAllReduceUs returns the time to all-reduce `bytes` of gradients over
// n workers with the classic two-phase ring: 2·(n−1) steps, each moving
// bytes/n per link. This is the analytic cross-check baseline: the
// event-level simulation of a single bucket serialized on the main stream
// must converge to it (modulo per-kernel setup cost).
func (ic Interconnect) RingAllReduceUs(bytes int64, n int) float64 {
	if n <= 1 {
		return 0
	}
	steps := 2 * (n - 1)
	perStep := float64(bytes) / float64(n) / ic.BytesPerUs
	return float64(steps) * (perStep + ic.LatencyUs)
}

// Fabrics returns the built-in interconnects.
func Fabrics() []Interconnect { return []Interconnect{PCIe(), NVLink()} }

// FabricByName resolves a built-in interconnect by its Name field.
func FabricByName(name string) (Interconnect, bool) {
	for _, ic := range Fabrics() {
		if ic.Name == name {
			return ic, true
		}
	}
	return Interconnect{}, false
}

// FabricNames returns the built-in fabric names, sorted.
func FabricNames() []string {
	var out []string
	for _, ic := range Fabrics() {
		out = append(out, ic.Name)
	}
	sort.Strings(out)
	return out
}

// The stock cost constants: the simulated P100's seed, launch overhead
// and kernel setup cost (gpusim.P100), and the runtime's CPU dispatch cost
// per op. A wire test pins them to the device.
const (
	stockSeed             = 1
	stockPerOpCPUUs       = 2
	stockLaunchOverheadUs = 7
	stockKernelSetupUs    = 1.5
)

// New returns the stock single-worker Spec of a zoo model: the simulated
// P100's cost constants and the enumerator's default stream count. Set
// Streams, Workers and Fabric on the result for other shapes.
func New(model, scale string, batch int, preset string) Spec {
	return Spec{
		Model: model, Scale: scale, Batch: batch, Preset: preset, Workers: 1,
		Seed: stockSeed, PerOpCPUUs: stockPerOpCPUUs,
		LaunchOverheadUs: stockLaunchOverheadUs, KernelSetupUs: stockKernelSetupUs,
	}
}

// Validate reports whether the spec names a run the system can build: a
// zoo model at default or tiny scale, a known preset, a known fabric for a
// multi-worker run, and finite non-negative costs. Errors name the valid
// choices.
func (s Spec) Validate() error {
	if i := sort.SearchStrings(zoo, s.Model); i == len(zoo) || zoo[i] != s.Model {
		return fmt.Errorf("spec: unknown model %q (valid models: %s)", s.Model, strings.Join(zoo, ", "))
	}
	if s.Scale != ScaleDefault && s.Scale != ScaleTiny {
		return fmt.Errorf("spec: unknown scale %q (valid scales: %s, %s)", s.Scale, ScaleDefault, ScaleTiny)
	}
	if _, ok := LevelOf(s.Preset); !ok {
		return fmt.Errorf("spec: unknown preset %q (valid presets: %s)", s.Preset, strings.Join(Presets(), ", "))
	}
	if s.Batch < 1 || s.Streams < 0 || s.Workers < 1 {
		return fmt.Errorf("spec: batch %d, streams %d or workers %d out of range (valid: >= 1, >= 0, >= 1)",
			s.Batch, s.Streams, s.Workers)
	}
	if _, ok := FabricByName(s.Fabric); !ok && (s.Fabric != "" || s.Workers >= 2) {
		return fmt.Errorf("spec: unknown fabric %q (valid fabrics: %s)", s.Fabric, strings.Join(FabricNames(), ", "))
	}
	for _, c := range []float64{s.PerOpCPUUs, s.LaunchOverheadUs, s.KernelSetupUs} {
		if !(c >= 0) || math.IsInf(c, 1) {
			return fmt.Errorf("spec: cost constant %v is not finite and non-negative", c)
		}
	}
	return nil
}

// Signature renders the spec as a ';'-terminated key=value string: the
// serve layer's job identity and fleet-store namespace. Cost constants
// appear only where they differ from the stock ones (New), so every stock
// job keeps the seven-field form
//
//	model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;fabric=;
//
// fabric always comes last, which keeps the signatures of valid specs
// prefix-free: a signature is never a string prefix of a different one.
func (s Spec) Signature() string {
	level, ok := LevelOf(s.Preset)
	if !ok {
		level = s.Preset
	}
	sig := fmt.Sprintf("model=%s;scale=%s;batch=%d;level=%s;streams=%d;workers=%d;",
		s.Model, s.Scale, s.Batch, level, s.Streams, s.Workers)
	if s.Seed != stockSeed {
		sig += fmt.Sprintf("seed=%d;", s.Seed)
	}
	for _, c := range []struct {
		key      string
		v, stock float64
	}{
		{"per_op_cpu_us", s.PerOpCPUUs, stockPerOpCPUUs},
		{"launch_overhead_us", s.LaunchOverheadUs, stockLaunchOverheadUs},
		{"kernel_setup_us", s.KernelSetupUs, stockKernelSetupUs},
	} {
		if c.v != c.stock {
			sig += fmt.Sprintf("%s=%v;", c.key, c.v)
		}
	}
	if s.Noisy {
		sig += "noisy=true;"
	}
	return sig + "fabric=" + s.Fabric + ";"
}

// ParseSignature is Signature's inverse. It accepts only the canonical
// rendering of a valid spec — ParseSignature(s.Signature()) == s for every
// valid s — and rejects anything else with an error, never a panic.
func ParseSignature(sig string) (Spec, error) {
	s := New("", "", 0, "")
	fields := strings.Split(sig, ";")
	if fields[len(fields)-1] != "" {
		return Spec{}, fmt.Errorf("spec: signature %q does not end in ';'", sig)
	}
	for _, f := range fields[:len(fields)-1] {
		// A value that fails to parse stays zero and is caught below: it
		// cannot re-render as written.
		k, v, _ := strings.Cut(f, "=")
		n, _ := strconv.Atoi(v)
		x, _ := strconv.ParseFloat(v, 64)
		switch k {
		case "model":
			s.Model = v
		case "scale":
			s.Scale = v
		case "batch":
			s.Batch = n
		case "level":
			s.Preset, _ = PresetFor(v)
		case "streams":
			s.Streams = n
		case "workers":
			s.Workers = n
		case "seed":
			s.Seed, _ = strconv.ParseUint(v, 10, 64)
		case "per_op_cpu_us":
			s.PerOpCPUUs = x
		case "launch_overhead_us":
			s.LaunchOverheadUs = x
		case "kernel_setup_us":
			s.KernelSetupUs = x
		case "noisy":
			s.Noisy = v == "true"
		case "fabric":
			s.Fabric = v
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	// Unknown keys and missing, repeated, reordered or non-canonically
	// written fields all re-render differently.
	if canon := s.Signature(); canon != sig {
		return Spec{}, fmt.Errorf("spec: signature %q is not canonical (want %q)", sig, canon)
	}
	return s, nil
}
