package costmodel

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"astra/internal/spec"
)

// FuzzModelLoad mirrors profile.FuzzIndexLoad for the cost-model snapshot
// format: a hostile snapshot must either be rejected with an error (leaving
// the model untouched) or be fully usable — never a panic, never a
// half-load.
func FuzzModelLoad(f *testing.F) {
	// A genuine snapshot.
	seed := func() []byte {
		m := NewModel()
		m.Observe(testMeta, "g0.chunk", "2", 100)
		m.Observe(testMeta, "u1.lib", "fast", 40)
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-object
	f.Add([]byte(`{"version":1,"updates":0,"buckets":{}}`))
	f.Add([]byte(`{"version":99,"updates":1,"buckets":{}}`))
	f.Add([]byte(`{"version":1,"updates":-4,"buckets":{}}`))
	f.Add([]byte(`{"version":1,"updates":1,"buckets":{"0|x|":{"n":0,"mean":1}}}`))
	f.Add([]byte(`{"version":1,"updates":1,"buckets":{"0|x|":{"n":70000,"mean":1}}}`))
	f.Add([]byte(`{"version":1,"updates":1,"buckets":{"bogus":{"n":1,"mean":1}}}`))
	f.Add([]byte(`{"version":1,"updates":1,"buckets":{"0|x|":{"n":1,"mean":1e999}}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewModel()
		m.Observe(testMeta, "pre.chunk", "1", 77) // pre-existing state
		preLen, preUpdates := m.Len(), m.Updates()
		if err := m.Load(bytes.NewReader(data)); err != nil {
			// Rejected cleanly: the model must be exactly as it was.
			if m.Len() != preLen || m.Updates() != preUpdates {
				t.Fatalf("failed load mutated model: %d/%d -> %d/%d",
					preLen, preUpdates, m.Len(), m.Updates())
			}
			if _, _, ok := m.Predict(testMeta, "pre.chunk", "1"); !ok {
				t.Fatalf("failed load lost prior bucket")
			}
			return
		}
		// Accepted: must round-trip byte-identically and stay predictable.
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("loaded model failed to save: %v", err)
		}
		again := NewModel()
		if err := again.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("round trip failed: %v\nsnapshot: %s", err, buf.Bytes())
		}
		if again.Len() != m.Len() || again.Updates() != m.Updates() {
			t.Fatalf("round trip changed state: %d/%d -> %d/%d",
				m.Len(), m.Updates(), again.Len(), again.Updates())
		}
		// A loaded model must serve Observe/Predict without issue.
		m.Observe(testMeta, "post.lib", "x", 5)
		if _, _, ok := m.Predict(testMeta, "post.lib", "x"); !ok {
			t.Fatalf("loaded model rejected new observations")
		}
	})
}

// TestConcurrentTrainPredictLoad is the race soak: one goroutine streams
// observations in, one predicts, one snapshots and re-loads — the shared
// fleet-model usage pattern under `make race`.
func TestConcurrentTrainPredictLoad(t *testing.T) {
	m := NewModel()
	m.Observe(testMeta, "g0.chunk", "2", 100)
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		labels := []string{"1", "2", "4", "8"}
		for i := 0; i < iters; i++ {
			m.Observe(testMeta, "g0.chunk", labels[i%len(labels)], float64(50+i%100))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m.Predict(testMeta, "g0.chunk", "2")
			m.Predict(spec.Spec{Model: "other"}, "x.chunk", "4")
			m.Len()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/20; i++ {
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Errorf("save under load: %v", err)
				return
			}
			fresh := NewModel()
			if err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Errorf("load under load: %v", err)
				return
			}
			if i%5 == 0 {
				m.Decay()
			}
		}
	}()
	wg.Wait()
	if _, _, ok := m.Predict(testMeta, "g0.chunk", "2"); !ok {
		t.Fatalf("model unusable after concurrent soak")
	}
}

// TestLoadTruncatedReader pins clean handling of a reader that errors
// mid-stream (not just malformed bytes).
func TestLoadTruncatedReader(t *testing.T) {
	m := NewModel()
	m.Observe(testMeta, "g0.chunk", "2", 100)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewModel()
	if err := fresh.Load(io.LimitReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()/2))); err == nil {
		t.Fatalf("mid-stream EOF accepted")
	}
	if fresh.Len() != 0 {
		t.Fatalf("failed load left %d buckets", fresh.Len())
	}
}
