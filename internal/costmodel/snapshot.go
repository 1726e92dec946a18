package costmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// SnapshotVersion is the current serialized model format.
const SnapshotVersion = 1

// snapshotBucket is one serialized feature bucket.
type snapshotBucket struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
}

// snapshotFile is the on-disk form: readable feature keys map to their
// statistics; the hash table rebuilds from the keys on load (the hash is
// FNV-1a over the key bytes, see hashKeyString).
type snapshotFile struct {
	Version int                       `json:"version"`
	Updates int64                     `json:"updates"`
	Buckets map[string]snapshotBucket `json:"buckets"`
}

// Save serializes the model as versioned JSON. Output bytes are
// deterministic for a given model state: the JSON encoder sorts map keys.
func (m *Model) Save(w io.Writer) error {
	m.mu.RLock()
	snap := snapshotFile{Version: SnapshotVersion, Updates: m.updates,
		Buckets: make(map[string]snapshotBucket, len(m.buckets))}
	for _, b := range m.buckets { // lint:ok map-range JSON encoder sorts map keys
		snap.Buckets[b.key] = snapshotBucket{N: b.n, Mean: b.mean}
	}
	m.mu.RUnlock()
	return json.NewEncoder(w).Encode(&snap)
}

// Load installs a Save'd snapshot, replacing the model's contents. The
// decode is validate-then-swap: a malformed, truncated, hostile or
// future-versioned snapshot returns an error and leaves the model exactly
// as it was — never a panic, never a half-load. Accepted invariants: known
// version, well-formed level-prefixed keys, positive bounded weights,
// finite means.
func (m *Model) Load(r io.Reader) error {
	var raw snapshotFile
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return fmt.Errorf("costmodel: load: %w", err)
	}
	if raw.Version < 1 {
		return fmt.Errorf("costmodel: load: missing or invalid snapshot version %d", raw.Version)
	}
	if raw.Version > SnapshotVersion {
		return fmt.Errorf("costmodel: load: snapshot version %d newer than supported %d", raw.Version, SnapshotVersion)
	}
	if raw.Updates < 0 {
		return fmt.Errorf("costmodel: load: negative update count %d", raw.Updates)
	}
	keys := make([]string, 0, len(raw.Buckets))
	for k := range raw.Buckets { // lint:ok map-range sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	next := make(map[uint64]*bucket, len(raw.Buckets))
	for _, k := range keys {
		sb := raw.Buckets[k]
		if len(k) < 3 || !strings.HasSuffix(k, "|") ||
			(!strings.HasPrefix(k, "0|") && !strings.HasPrefix(k, "1|") && !strings.HasPrefix(k, "2|")) {
			return fmt.Errorf("costmodel: load: malformed feature key %q", k)
		}
		if sb.N < 1 || sb.N > maxBucketWeight {
			return fmt.Errorf("costmodel: load: key %q: weight %d out of range [1, %d]", k, sb.N, maxBucketWeight)
		}
		if math.IsNaN(sb.Mean) || math.IsInf(sb.Mean, 0) {
			return fmt.Errorf("costmodel: load: key %q: non-finite mean", k)
		}
		h := hashKeyString(k)
		if _, dup := next[h]; dup {
			return fmt.Errorf("costmodel: load: duplicate feature key hash for %q", k)
		}
		next[h] = &bucket{key: k, n: sb.N, mean: sb.Mean}
	}
	m.mu.Lock()
	m.buckets = next
	m.updates = raw.Updates
	mb := m.mBuckets
	n := len(next)
	m.mu.Unlock()
	if mb != nil {
		mb.Set(float64(n))
	}
	return nil
}
