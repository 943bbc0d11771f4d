package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
)

func TestEstimateConvergenceKnownRate(t *testing.T) {
	// Second-order data: e = 3·h².
	est := EstimateConvergence(0.1, 3*0.01, 0.05, 3*0.0025)
	if math.Abs(est.Rate-2) > 1e-12 {
		t.Errorf("rate = %g, want 2", est.Rate)
	}
	if math.Abs(est.Constant-3) > 1e-9 {
		t.Errorf("constant = %g, want 3", est.Constant)
	}
	if e := est.ErrorAt(0.01); math.Abs(e-3e-4) > 1e-12 {
		t.Errorf("ErrorAt(0.01) = %g", e)
	}
}

func TestEstimateConvergenceProperty(t *testing.T) {
	f := func(rateRaw, cRaw uint8) bool {
		rate := 1 + float64(rateRaw%8)
		c := 0.5 + float64(cRaw%10)
		h1, h2 := 0.2, 0.05
		est := EstimateConvergence(h1, c*math.Pow(h1, rate), h2, c*math.Pow(h2, rate))
		return math.Abs(est.Rate-rate) < 1e-9 && math.Abs(est.Constant-c) < 1e-6*c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSuggestToleranceBalancesErrors(t *testing.T) {
	est := ConvergenceEstimate{Rate: 4, Constant: 10}
	h := 0.05
	etol := est.SuggestTolerance(h, 0.5)
	if etol >= est.ErrorAt(h) {
		t.Error("suggested tolerance not below the discretization error")
	}
	// The method picked at that tolerance must respect it.
	m := compress.FromTolerance(etol)
	if m.ErrorBound() > etol {
		t.Errorf("method %s bound %g exceeds suggested tolerance %g", m.Name(), m.ErrorBound(), etol)
	}
}

func TestEstimatePanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { EstimateConvergence(0, 1, 1, 1) },
		func() { EstimateConvergence(1, 1, 1, 1) },
		func() { EstimateConvergence(0.1, -1, 0.05, 1) },
		func() { ConvergenceEstimate{Rate: 2, Constant: 1}.SuggestTolerance(0.1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestPredictExchangesLowerBound: the analytic exchange model books only
// serialization, protocol occupancy, injection overhead, and latency, so
// its prediction must never exceed the measured exchange time.
func TestPredictExchangesLowerBound(t *testing.T) {
	cfg := netsim.Summit(2)
	n := [3]int{16, 16, 16}
	opts := Options{Backend: BackendCompressed, Method: compress.Cast32{}}
	rec := obs.New(obs.Options{Trace: true, Metrics: true})
	recorded(rec, cfg, n, opts, false)
	preds := PredictExchanges(cfg, n, opts, 16)
	if len(preds) != 4 {
		t.Fatalf("got %d reshape estimates, want 4", len(preds))
	}
	for _, est := range preds {
		if est.Predicted <= 0 {
			t.Errorf("%s: predicted %g, want > 0", est.Label, est.Predicted)
		}
		h, ok := rec.Metrics().Hist("exchange/" + est.Label + "/time_s")
		if !ok {
			t.Fatalf("%s: no measured exchange time recorded", est.Label)
		}
		if measured := h.Mean(); est.Predicted > measured*(1+1e-9) {
			t.Errorf("%s: predicted %gs exceeds measured %gs — the model must stay a lower bound",
				est.Label, est.Predicted, measured)
		}
	}
}

func TestForwardLengthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad input length")
		}
	}()
	mpi.Run(machine(1), func(c *mpi.Comm) {
		pl := NewPlan[complex128](c, [3]int{4, 4, 4}, Options{})
		pl.Forward(make([]complex128, 3)) // wrong size
	})
}

func TestBackwardLengthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad input length")
		}
	}()
	mpi.Run(machine(1), func(c *mpi.Comm) {
		pl := NewPlan[complex128](c, [3]int{4, 4, 4}, Options{})
		pl.Backward(make([]complex128, 5))
	})
}
