package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/obs"
)

// TestObservedPhaseBreakdown is the acceptance check of the tracing
// layer: a compressed run records all five pipeline phases on every
// rank, their per-rank sum tiles the wall time to within 5%, and the
// achieved-compression counters are populated per reshape.
func TestObservedPhaseBreakdown(t *testing.T) {
	rec := obs.New(obs.Options{Trace: true, Metrics: true})
	opts := Options{Backend: BackendCompressed, Method: compress.Cast32{}}
	res := recorded(rec, machine(12), [3]int{16, 16, 16}, opts, false)
	if res.ForwardTime <= 0 {
		t.Fatalf("forward time = %v", res.ForwardTime)
	}

	b := rec.PhaseBreakdown()
	if b.Ranks != 12 {
		t.Fatalf("breakdown ranks = %d, want 12", b.Ranks)
	}
	seen := map[obs.Phase]bool{}
	for _, p := range b.Phases {
		seen[p.Phase] = true
	}
	for _, ph := range []obs.Phase{obs.PhasePack, obs.PhaseExchange, obs.PhaseUnpack, obs.PhaseFFT} {
		if !seen[ph] {
			t.Errorf("phase %v missing from breakdown", ph)
		}
	}
	if c := b.Coverage(); math.Abs(c-1) > 0.05 {
		t.Errorf("phase sum covers %.1f%% of wall, want within 5%%", 100*c)
	}

	// Each of the eight reshapes (fwd0..3 + warmup repeats the labels)
	// reports raw vs wire bytes at the FP64→FP32 rate.
	stats := rec.Metrics().CompressionStats()
	if len(stats) == 0 {
		t.Fatal("no compression stats recorded")
	}
	labels := map[string]bool{}
	for _, s := range stats {
		labels[s.Label] = true
		if r := s.Ratio(); r < 1.8 || r > 2.2 {
			t.Errorf("%s achieved ratio = %.2f, want ~2.0 for FP64->FP32", s.Label, r)
		}
		if s.ErrorBound <= 0 {
			t.Errorf("%s error bound = %v, want > 0", s.Label, s.ErrorBound)
		}
	}
	for _, want := range []string{"fwd0", "fwd1", "fwd2", "fwd3"} {
		if !labels[want] {
			t.Errorf("missing compression stats for reshape %q (have %v)", want, labels)
		}
	}

	// Every rank carries GPU-track kernel spans too.
	for _, id := range rec.RankIDs() {
		gpuSpans := 0
		for _, s := range rec.RankSpans(id) {
			if s.Track == obs.TrackGPU {
				gpuSpans++
			}
		}
		if gpuSpans == 0 {
			t.Errorf("rank %d recorded no GPU spans", id)
		}
	}

	// The full export is valid JSON.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
}

// TestRecordingDoesNotPerturbTiming is the virtual-time invariance
// contract: measured results must be identical with and without a
// recorder attached.
func TestRecordingDoesNotPerturbTiming(t *testing.T) {
	opts := Options{Backend: BackendCompressed, Method: compress.Cast16{}}
	n := [3]int{16, 16, 16}
	plain := Measure[complex128](machine(12), n, opts, 1, false)
	rec := obs.New(obs.Options{Trace: true, Metrics: true})
	traced := recorded(rec, machine(12), n, opts, false)
	if plain.ForwardTime != traced.ForwardTime {
		t.Errorf("recording changed timing: %v vs %v", plain.ForwardTime, traced.ForwardTime)
	}
	if plain.Stats != traced.Stats {
		t.Errorf("recording changed stats: %+v vs %+v", plain.Stats, traced.Stats)
	}
}
