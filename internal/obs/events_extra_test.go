package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"astra/internal/spec"
)

// TestEventLogRoundTripProfiles round-trips a record carrying the full
// analyzer payload — per-worker kernel profiles, freeze lists, fabric —
// and requires exact equality, since analyze depends on the float operands
// surviving JSON unchanged.
func TestEventLogRoundTripProfiles(t *testing.T) {
	ev := TrialEvent{
		Batch: 7, Trial: 5, Phase: "wired",
		StartUs: 1234.5, BatchUs: 321.25,
		Kernels: 3, Events: 6,
		FrozenVars: 2, TotalVars: 2,
		CommUs: 55.5, WorkerUs: []float64{320, 321.25},
		Spec:           spec.Spec{Workers: 2, Fabric: "pcie3"},
		Froze:          []string{"g0.chunk", "g1.fuse"},
		Reexplorations: 1,
		Profiles: []BatchProfile{
			{
				Worker: 0, Streams: 2, CommStream: 1,
				CPUUs: 40.5, EndUs: 320, NumSMs: 56, SMBusyUs: 1000,
				Kernels: []KernelSample{
					{Name: "gemm_a_128", Stream: 0, LaunchUs: 5, StartUs: 5,
						EndUs: 105, SMTimeUs: 560, FreeUs: 0, WaitUs: 0, WaitStream: -1},
					{Name: "allreduce.b0.s0", Stream: 1, LaunchUs: 6, StartUs: 105,
						EndUs: 205, SMTimeUs: 0, FreeUs: 0, WaitUs: 105,
						WaitStream: 0, WaitTag: "bucket"},
				},
			},
			{Worker: 1, Streams: 1, CommStream: -1, CPUUs: 41, EndUs: 321.25,
				NumSMs: 56, SMBusyUs: 999, Kernels: []KernelSample{}},
		},
	}
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	if err := l.Emit(ev); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrialEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d events", len(got))
	}
	if !reflect.DeepEqual(got[0], ev) {
		t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", got[0], ev)
	}
	if s := &got[0].Profiles[0].Kernels[1]; s.DurationUs() != 100 {
		t.Fatalf("sample duration = %v", s.DurationUs())
	}
	if w := got[0].Profiles[0].WallUs(); w != 320 {
		t.Fatalf("worker 0 wall = %v", w)
	}
}

// malformedEventLogs are corrupt logs ReadTrialEvents must reject;
// FuzzReadTrialEvents seeds from them too.
var malformedEventLogs = []struct {
	name, in string
}{
	{"truncated object", `{"batch":1,"trial"`},
	{"wrong field type", `{"batch":"seven"}`},
	{"bare word", "wired\n"},
	{"bad line after good", "{\"batch\":1}\n{\"batch\":2}\n[1,2\n"},
	{"bad profile payload", `{"batch":1,"profiles":[{"worker":"zero"}]}`},
}

func TestReadTrialEventsMalformedLines(t *testing.T) {
	for _, tc := range malformedEventLogs {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTrialEvents(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
		})
	}
	// The error must name the offending line so a corrupt multi-gigabyte
	// log is debuggable.
	_, err := ReadTrialEvents(strings.NewReader("{\"batch\":1}\n\n{\"batch\":2}\nnope\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error does not locate the bad line: %v", err)
	}
	// Blank lines are tolerated, not records.
	got, err := ReadTrialEvents(strings.NewReader("\n{\"batch\":1}\n\n{\"batch\":2}\n\n"))
	if err != nil || len(got) != 2 {
		t.Fatalf("blank-line log: %d events, err %v", len(got), err)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("explore.trials", "").Add(9)
	r.Gauge("profile.hit_rate", "").Set(0.75)
	h := r.Histogram("batch.total_us", "")
	h.Observe(100)
	h.Observe(300)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	if v := snap["explore.trials"]; v.Kind != "counter" || v.Value != 9 {
		t.Fatalf("counter snapshot %+v", v)
	}
	if v := snap["profile.hit_rate"]; v.Kind != "gauge" || v.Value != 0.75 {
		t.Fatalf("gauge snapshot %+v", v)
	}
	if v := snap["batch.total_us"]; v.Kind != "histogram" || v.Value != 400 || v.Count != 2 {
		t.Fatalf("histogram snapshot %+v", v)
	}
	// A snapshot is a copy: later mutation must not leak in.
	r.Counter("explore.trials", "").Inc()
	if snap["explore.trials"].Value != 9 {
		t.Fatal("snapshot aliases live metrics")
	}
}

// TestWritePromStableContract pins the documented exposition contract:
// families sorted by dotted registration name regardless of registration
// order, and byte-identical output for identical contents.
func TestWritePromStableContract(t *testing.T) {
	render := func(order []string) string {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n, "").Add(1)
		}
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]string{"zeta.last", "analyze.critical_path_us", "batch.total_us"})
	b := render([]string{"batch.total_us", "zeta.last", "analyze.critical_path_us"})
	if a != b {
		t.Fatalf("registration order changed exposition:\n%s\nvs\n%s", a, b)
	}
	za := strings.Index(a, "zeta_last")
	ba := strings.Index(a, "batch_total_us")
	aa := strings.Index(a, "analyze_critical_path_us")
	if !(aa < ba && ba < za) {
		t.Fatalf("families not sorted by name:\n%s", a)
	}
}
