package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTrialEvents hardens the event-log reader, the trust boundary of
// astra-analyze and astra-whatif: arbitrary bytes must either decode or
// come back as an error, never a panic. A decoded log must re-encode to a
// stable form: writing it out and reading it back changes nothing more.
func FuzzReadTrialEvents(f *testing.F) {
	for _, tc := range malformedEventLogs {
		f.Add([]byte(tc.in))
	}
	f.Add([]byte("\n{\"batch\":1}\n\n{\"batch\":2}\n\n"))
	f.Add([]byte(`{"batch":3,"trial":2,"phase":"explore","batch_us":12.5,"bindings":{"g0.chunk":"2"},` +
		`"comm_us":4,"worker_us":[12,12.5],"profiles":[{"worker":0,"streams":2,"comm_stream":1,` +
		`"kernels":[{"name":"allreduce.b0.s0","stream":1,"launch_us":1,"start_us":2,"end_us":4,"wait_stream":-1}]}],` +
		`"model":"sublstm","model_scale":"tiny","per_device_batch":2,"preset":"Astra_F","num_streams":2,` +
		`"workers":2,"fabric":"pcie3","seed":1,"per_op_cpu_us":2,"launch_overhead_us":7,"kernel_setup_us":1.5}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrialEvents(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "obs: event log") {
				t.Fatalf("error %q does not name the event log", err)
			}
			return
		}
		first := encode(t, events)
		again, err := ReadTrialEvents(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded log does not decode: %v\n%s", err, first)
		}
		if second := encode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("log not stable under re-encoding:\n%s\nvs\n%s", first, second)
		}
	})
}

func encode(t *testing.T, events []TrialEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	for _, ev := range events {
		if err := l.Emit(ev); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	}
	return buf.Bytes()
}
