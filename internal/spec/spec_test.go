package spec

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

func specs() []Spec {
	pcie := New("scrnn", ScaleDefault, 16, PresetFK)
	pcie.Workers, pcie.Fabric, pcie.Streams = 4, "pcie3", 3
	costly := New("gnmt", ScaleTiny, 1, PresetAll)
	costly.Seed, costly.PerOpCPUUs, costly.LaunchOverheadUs, costly.KernelSetupUs = 0, 3, 0.1, 0
	noisy := New("rhn", ScaleTiny, 512, PresetF)
	noisy.Noisy = true
	idleFabric := New("milstm", ScaleTiny, 4, PresetFKS)
	idleFabric.Fabric = "nvlink1"
	return []Spec{New("sublstm", ScaleTiny, 4, PresetFK), pcie, costly, noisy, idleFabric}
}

// TestSignatureRoundTrip: every valid spec's signature parses back to the
// spec, and a stock job keeps the seven-field form the fleet store keys on.
func TestSignatureRoundTrip(t *testing.T) {
	for _, s := range specs() {
		if err := s.Validate(); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		got, err := ParseSignature(s.Signature())
		if err != nil || got != s {
			t.Errorf("ParseSignature(%q) = %+v, %v; want %+v", s.Signature(), got, err, s)
		}
	}
	want := "model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;fabric=;"
	if got := specs()[0].Signature(); got != want {
		t.Errorf("stock signature %q, want %q", got, want)
	}
	want = "model=gnmt;scale=tiny;batch=1;level=All;streams=0;workers=1;seed=0;per_op_cpu_us=3;launch_overhead_us=0.1;kernel_setup_us=0;fabric=;"
	if got := specs()[2].Signature(); got != want {
		t.Errorf("non-stock signature %q, want %q", got, want)
	}
}

// TestSignaturesPrefixFree: serve evicts a job's fleet-store keys by
// signature prefix, so no signature may prefix a different one.
func TestSignaturesPrefixFree(t *testing.T) {
	var sigs []string
	for _, s := range specs() {
		for _, batch := range []int{1, 12} {
			s.Batch = batch
			sigs = append(sigs, s.Signature())
		}
	}
	for i, a := range sigs {
		for j, b := range sigs {
			if i != j && a != b && strings.HasPrefix(b, a) {
				t.Errorf("%q prefixes %q", a, b)
			}
		}
	}
}

func TestParseSignatureRejects(t *testing.T) {
	stock := "model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;fabric=;"
	for _, sig := range []string{
		"",
		";",
		strings.TrimSuffix(stock, ";"),
		"model=sublstm",
		"model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;",         // no fabric
		"scale=tiny;model=sublstm;batch=4;level=FK;streams=0;workers=1;fabric=;", // reordered
		"model=sublstm;model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;fabric=;",
		"model=sublstm;scale=tiny;batch=04;level=FK;streams=0;workers=1;fabric=;", // non-canonical number
		"model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;seed=1;fabric=;",
		"model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;noisy=false;fabric=;",
		"model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;turbo=1;fabric=;",
		"model=sublstm;scale=tiny;batch=x;level=FK;streams=0;workers=1;fabric=;",
		"model=sublstm;scale=tiny;batch=4;level=FX;streams=0;workers=1;fabric=;",
		"model=resnet;scale=tiny;batch=4;level=FK;streams=0;workers=1;fabric=;",
		"model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=2;fabric=;",
		"model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;per_op_cpu_us=NaN;fabric=;",
		"model=sublstm;scale=tiny;batch=4;level=FK;streams=0;workers=1;fabric=;extra",
	} {
		if s, err := ParseSignature(sig); err == nil {
			t.Errorf("ParseSignature(%q) accepted: %+v", sig, s)
		}
	}
}

func TestValidate(t *testing.T) {
	base := New("sublstm", ScaleTiny, 4, PresetFK)
	cases := []struct {
		edit func(*Spec)
		want string // substring of the error, naming the valid choices
	}{
		{func(s *Spec) { s.Model = "resnet50" }, "valid models: attlstm, gnmt, milstm, rhn, scrnn, stackedlstm, sublstm"},
		{func(s *Spec) { s.Scale = ScaleCustom }, "valid scales: default, tiny"},
		{func(s *Spec) { s.Batch = 0 }, "batch 0"},
		{func(s *Spec) { s.Preset = "FK" }, "valid presets: Astra_F, Astra_FK, Astra_FKS, Astra_all"},
		{func(s *Spec) { s.Streams = -1 }, "streams -1"},
		{func(s *Spec) { s.Workers = 0 }, "workers 0"},
		{func(s *Spec) { s.Workers = 2 }, "valid fabrics: nvlink1, pcie3"},
		{func(s *Spec) { s.Fabric = "infiniband" }, "valid fabrics: nvlink1, pcie3"},
		{func(s *Spec) { s.KernelSetupUs = math.Inf(1) }, "cost constant +Inf"},
		{func(s *Spec) { s.PerOpCPUUs = -1 }, "cost constant -1"},
	}
	for _, tc := range cases {
		s := base
		tc.edit(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want an error naming %q", s, err, tc.want)
		}
	}
}

// TestJSONFieldNames pins the event log's field names: logs written before
// Spec existed must keep decoding into it.
func TestJSONFieldNames(t *testing.T) {
	s := specs()[2]
	s.Workers, s.Fabric, s.Streams, s.Noisy, s.Seed, s.KernelSetupUs = 2, "pcie3", 3, true, 5, 1
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]interface{}
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := "fabric kernel_setup_us launch_overhead_us model model_scale noisy num_streams per_device_batch per_op_cpu_us preset seed workers"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("JSON fields %q, want %q", got, want)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil || back != s {
		t.Fatalf("JSON round trip = %+v, %v; want %+v", back, err, s)
	}
}

func TestLevels(t *testing.T) {
	if got := strings.Join(Levels(), ","); got != "All,F,FK,FKS" {
		t.Fatalf("Levels() = %s", got)
	}
	for _, l := range Levels() {
		p, ok := PresetFor(l)
		if back, ok2 := LevelOf(p); !ok || !ok2 || back != l {
			t.Errorf("level %q -> preset %q -> level %q", l, p, back)
		}
	}
	if _, ok := PresetFor("Astra_FK"); ok {
		t.Error("a preset name resolved as a level")
	}
}

// FuzzParseSignature pins both halves of the signature contract: any spec
// the fuzzer assembles that validates survives Signature → ParseSignature
// unchanged, and any string ParseSignature accepts is the canonical
// signature of a valid spec. Hostile strings must return an error, never
// panic.
func FuzzParseSignature(f *testing.F) {
	for _, s := range specs() {
		f.Add(s.Signature(), s.Model, s.Scale, s.Batch, s.Preset, s.Streams, s.Workers, s.Fabric,
			s.Seed, s.PerOpCPUUs, s.LaunchOverheadUs, s.KernelSetupUs, s.Noisy)
	}
	f.Add("model=;;;=;batch=-1;fabric=\x00;", "sublstm", "tiny", 0, "Astra_F", -1, 0, "", uint64(0), math.NaN(), -0.0, 1e308, false)
	f.Fuzz(func(t *testing.T, sig, model, scale string, batch int, preset string, streams, workers int,
		fabric string, seed uint64, perOp, launch, setup float64, noisy bool) {
		if s, err := ParseSignature(sig); err == nil {
			if s.Validate() != nil || s.Signature() != sig {
				t.Fatalf("accepted %q as %+v, which is not its valid canonical form", sig, s)
			}
		}
		s := Spec{Model: model, Scale: scale, Batch: batch, Preset: preset, Streams: streams, Workers: workers,
			Fabric: fabric, Seed: seed, PerOpCPUUs: perOp, LaunchOverheadUs: launch, KernelSetupUs: setup, Noisy: noisy}
		if s.Validate() != nil {
			return
		}
		got, err := ParseSignature(s.Signature())
		if err != nil || got != s {
			t.Fatalf("ParseSignature(%q) = %+v, %v; want %+v", s.Signature(), got, err, s)
		}
	})
}
