package core

import (
	"math"
	"testing"

	recov "repro/internal/recover"
)

// TestRunUnmeasuredIsNaN pins the "not measured" rule: a Result field
// the job did not measure is NaN, with or without a recovery policy,
// and a measured one is finite.
func TestRunUnmeasuredIsNaN(t *testing.T) {
	for _, tc := range []struct {
		name             string
		iters            int
		wantErr          bool
		timed, roundTrip bool
	}{
		{"timed only", 1, false, true, false},
		{"round trip only", 0, true, false, true},
		{"both", 1, true, true, true},
		{"neither", 0, false, false, false},
	} {
		for _, pol := range []*recov.Policy{nil, {}} {
			job := Job{Machine: machine(6), N: [3]int{8, 8, 8}, Options: Options{Backend: BackendAlltoallv},
				Iters: tc.iters, WantErr: tc.wantErr, Recovery: pol}
			res, _, err := Run[complex128](job)
			if err != nil {
				t.Fatalf("%s (recovery %v): %v", tc.name, pol != nil, err)
			}
			for _, f := range []struct {
				name     string
				v        float64
				measured bool
			}{
				{"ForwardTime", res.ForwardTime, tc.timed},
				{"Gflops", res.Gflops, tc.timed},
				{"RelErr", res.RelErr, tc.roundTrip},
			} {
				if f.measured == math.IsNaN(f.v) || math.IsInf(f.v, 0) {
					t.Errorf("%s (recovery %v): %s = %v, measured %v", tc.name, pol != nil, f.name, f.v, f.measured)
				}
			}
		}
	}
}
