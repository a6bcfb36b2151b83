package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestInputsSeeded checks the seeded input generation in quick mode: one
// seed gives an identical request and log sequence, another seed a
// different one, and every generated detect request is distinct.
func TestInputsSeeded(t *testing.T) {
	a, err := buildInputs(7, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildInputs(7, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildInputs(8, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() != b.digest() {
		t.Error("the same seed generated different inputs")
	}
	if a.digest() == c.digest() {
		t.Error("different seeds generated identical inputs")
	}
	for i := range a.synth {
		if bytes.Equal(a.synth[i].body, c.synth[i].body) {
			t.Errorf("synthetic log %d is identical across seeds", i)
		}
	}
	seen := map[string]bool{}
	for k := 0; k < 1000; k++ {
		r := a.request(k)
		key, _ := json.Marshal(r)
		if seen[string(key)] {
			t.Fatalf("request %d repeats an earlier request: %s", k, key)
		}
		seen[string(key)] = true
	}
}

// TestRecordingsReplayable checks that every quick-mode recording decodes
// into a schedule and carries the replay parameters the online phase needs.
func TestRecordingsReplayable(t *testing.T) {
	in, err := buildInputs(3, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range in.online {
		entries, err := decodeLog(r.body)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != r.entries {
			t.Errorf("%s: decoded %d entries, want %d", r.app, len(entries), r.entries)
		}
		eps, err := epochs(entries)
		if err != nil {
			t.Fatal(err)
		}
		if len(eps) != r.entries {
			t.Errorf("%s: %d epochs for %d entries", r.app, len(eps), r.entries)
		}
		if !strings.Contains(onlineQuery(r), "detect=online") {
			t.Errorf("online query %q lacks detect=online", onlineQuery(r))
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) on known samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // extrapolates, as Python does
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q2-tc.q2) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
