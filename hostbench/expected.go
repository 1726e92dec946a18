package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// expectedJSON holds the committed expected outputs: every session's
// trials-to-freeze and simulated wired mini-batch time, and the replay
// workload's prediction digest. The simulated substrate is deterministic,
// so these are exact.
//
//go:embed expected.json
var expectedJSON []byte

type expectedSession struct {
	Trials int     `json:"trials"`
	SimUs  float64 `json:"sim_us"`
}

type expected struct {
	Sessions map[string]expectedSession `json:"sessions"` // key: workload/session
	Replay   map[string]string          `json:"replay"`   // log name → prediction digest
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("parsing expected.json: %w", err)
	}
	return &e, nil
}

// checkSession compares a session's deterministic outputs with the
// committed values.
func (e *expected) checkSession(workload, name string, s sessionSample) []string {
	key := workload + "/" + name
	want, ok := e.Sessions[key]
	got := fmt.Sprintf(`"%s": {"trials": %d, "sim_us": %s}`, key, s.trials, strconv.FormatFloat(s.simUs, 'g', -1, 64))
	switch {
	case !ok:
		return []string{"no expected value; got " + got}
	case want.Trials != s.trials || want.SimUs != s.simUs:
		return []string{fmt.Sprintf("expected trials %d, sim %v µs; got %s", want.Trials, want.SimUs, got)}
	}
	return nil
}
