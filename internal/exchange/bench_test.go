package exchange

import (
	"math"
	"testing"

	recov "repro/internal/recover"
)

// TestRunUnmeasuredIsNaN pins the "not measured" rule of the bandwidth
// harness: with no timed iteration both NodeBW and Seconds are NaN, for
// every algorithm and with or without a recovery policy.
func TestRunUnmeasuredIsNaN(t *testing.T) {
	for _, algo := range []string{AlgoLinear, AlgoOSC, AlgoOSCComp} {
		for _, iters := range []int{0, 1} {
			for _, pol := range []*recov.Policy{nil, {}} {
				res, _, err := Run(Job{Machine: machine(1), Spec: Spec{Algo: algo}, MsgBytes: 4096,
					Iters: iters, Recovery: pol})
				if err != nil {
					t.Fatalf("%s iters=%d: %v", algo, iters, err)
				}
				for name, v := range map[string]float64{"NodeBW": res.NodeBW, "Seconds": res.Seconds} {
					if (iters > 0) == math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
						t.Errorf("%s iters=%d recovery=%v: %s = %v", algo, iters, pol != nil, name, v)
					}
				}
			}
		}
	}
}
