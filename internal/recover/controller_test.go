package recover_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
	recov "repro/internal/recover"
)

// The controller tests drive the full pipeline — checkpointing plan,
// reliable runtime, watchdog, rollback, respawn — on the 6-rank Summit
// node, crashing one rank mid-run.

var testN = [3]int{8, 8, 8}

// measure runs two timed forward transforms of testN on cfg under pol.
func measure(cfg netsim.Config, opts core.Options, wantErr bool, pol recov.Policy) (core.Result, recov.Outcome, error) {
	return core.Run[complex128](core.Job{Machine: cfg, N: testN, Options: opts, Iters: 2, WantErr: wantErr, Recovery: &pol})
}

// baselineTime measures the crash-free duration of the recoverable
// workload, used to aim crashes at the middle of the run.
func baselineTime(t *testing.T, opts core.Options) float64 {
	t.Helper()
	cfg := netsim.Summit(1)
	_, out, err := measure(cfg, opts, true, recov.Policy{})
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	if out.Attempts != 1 || len(out.Recoveries) != 0 {
		t.Fatalf("baseline run recovered without faults: %+v", out)
	}
	return out.Result.Time
}

func TestControllerRecoversMidRunCrash(t *testing.T) {
	opts := core.Options{Backend: core.BackendOSC}
	half := baselineTime(t, opts) / 2

	cfg := netsim.Summit(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 21, CrashRank: 3, CrashAt: half}
	res, out, err := measure(cfg, opts, true, recov.Policy{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if out.Attempts != 2 || len(out.Recoveries) != 1 {
		t.Fatalf("attempts %d, recoveries %d; want 2 and 1", out.Attempts, len(out.Recoveries))
	}
	r := out.Recoveries[0]
	if r.CrashT <= 0 || r.DetectT < r.CrashT || r.ResumeT <= r.DetectT {
		t.Errorf("recovery timeline out of order: %+v", r)
	}
	if out.MTTRSeconds != r.ResumeT-r.CrashT {
		t.Errorf("MTTR %g, want %g", out.MTTRSeconds, r.ResumeT-r.CrashT)
	}
	if r.Epoch < 0 {
		t.Errorf("no committed epoch before a mid-run crash (crash at t=%.3g): %+v", half, r)
	}
	// The resumed pipeline must still compute a correct transform.
	if math.IsNaN(res.RelErr) || res.RelErr > 1e-12 {
		t.Errorf("recovered run round-trip error %g", res.RelErr)
	}
}

func TestControllerEngineEquivalence(t *testing.T) {
	// The recovered run must be bit-identical to itself across the
	// sequential and parallel engines: same virtual end time, same
	// recovery timeline, same numerical result.
	opts := core.Options{Backend: core.BackendCompressed, Tolerance: 1e-6}
	half := baselineTime(t, opts) / 2

	run := func(parallel bool) (core.Result, recov.Outcome) {
		cfg := netsim.Summit(1)
		cfg.Parallel = parallel
		cfg.Faults = &netsim.FaultPlan{Seed: 22, CrashRank: 1, CrashAt: half,
			DropProb: 0.01, SilentCorruptProb: 0.02}
		res, out, err := measure(cfg, opts, true, recov.Policy{})
		if err != nil {
			t.Fatalf("parallel=%v: recovery failed: %v", parallel, err)
		}
		return res, out
	}
	seqRes, seqOut := run(false)
	parRes, parOut := run(true)

	if seqOut.Result.Time != parOut.Result.Time {
		t.Errorf("virtual end time diverged: sequential %v, parallel %v", seqOut.Result.Time, parOut.Result.Time)
	}
	if seqOut.Attempts != parOut.Attempts || len(seqOut.Recoveries) != len(parOut.Recoveries) {
		t.Fatalf("recovery shape diverged: %+v vs %+v", seqOut, parOut)
	}
	for i := range seqOut.Recoveries {
		if seqOut.Recoveries[i] != parOut.Recoveries[i] {
			t.Errorf("recovery %d diverged: %+v vs %+v", i, seqOut.Recoveries[i], parOut.Recoveries[i])
		}
	}
	if seqOut.MTTRSeconds != parOut.MTTRSeconds {
		t.Errorf("MTTR diverged: %v vs %v", seqOut.MTTRSeconds, parOut.MTTRSeconds)
	}
	if seqRes.RelErr != parRes.RelErr {
		t.Errorf("numerical result diverged: %v vs %v", seqRes.RelErr, parRes.RelErr)
	}
	if seqRes.ForwardTime != parRes.ForwardTime {
		t.Errorf("forward time diverged: %v vs %v", seqRes.ForwardTime, parRes.ForwardTime)
	}
}

func TestControllerAbsorbsDoubleFault(t *testing.T) {
	// A second crash during recovery (scheduled past the first verdict)
	// must be caught by the same loop: two rollbacks, three attempts.
	opts := core.Options{Backend: core.BackendOSC}
	half := baselineTime(t, opts) / 2

	// Probe with the first crash alone to learn where attempt 2 runs in
	// virtual time, then aim the second crash at its middle. The probe's
	// timeline is identical to the double-fault run up to the second
	// crash (same seed, same plan prefix).
	probeCfg := netsim.Summit(1)
	probeCfg.Faults = &netsim.FaultPlan{Seed: 23, CrashRank: 2, CrashAt: half}
	_, probe, err := measure(probeCfg, opts, true, recov.Policy{})
	if err != nil || len(probe.Recoveries) != 1 {
		t.Fatalf("probe run: %v, %+v", err, probe)
	}
	second := (probe.Recoveries[0].ResumeT + probe.Result.Time) / 2

	cfg := netsim.Summit(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 23, CrashRank: 2, CrashAt: half,
		CrashSchedule: []netsim.CrashSpec{{Rank: 4, At: second}}}
	res, out, err := measure(cfg, opts, true, recov.Policy{})
	if err != nil {
		t.Fatalf("double-fault recovery failed: %v", err)
	}
	if out.Attempts != 3 || len(out.Recoveries) != 2 {
		t.Fatalf("attempts %d, recoveries %d; want 3 and 2", out.Attempts, len(out.Recoveries))
	}
	if out.Recoveries[1].CrashT <= out.Recoveries[0].DetectT {
		t.Errorf("second crash not after first verdict: %+v", out.Recoveries)
	}
	if math.IsNaN(res.RelErr) || res.RelErr > 1e-12 {
		t.Errorf("recovered run round-trip error %g", res.RelErr)
	}
}

func TestControllerGivesUpWithTypedDiagnosis(t *testing.T) {
	// With recovery disabled every crash is immediately unrecoverable —
	// a typed diagnosis, not a hang and not a bare panic.
	opts := core.Options{Backend: core.BackendOSC}
	half := baselineTime(t, opts) / 2

	cfg := netsim.Summit(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 24, CrashRank: 5, CrashAt: half}
	_, out, err := measure(cfg, opts, false, recov.Policy{MaxRestarts: -1})
	if err == nil {
		t.Fatal("crash with recovery disabled must fail")
	}
	var ue *recov.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("error is %T (%v), want *recov.UnrecoverableError", err, err)
	}
	if ue.Attempts != 1 || out.Attempts != 1 {
		t.Errorf("attempts %d/%d, want 1", ue.Attempts, out.Attempts)
	}
	if ue.Cause == nil {
		t.Error("give-up diagnosis lost its cause chain")
	}
}

func TestControllerPassesThroughNonCrashFailures(t *testing.T) {
	// A run that dies for a non-crash reason (an application bug) must
	// pass through the controller unchanged — no retry, no rollback.
	cfg := netsim.Summit(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 25}
	ct := &recov.Controller{}
	attempts := 0
	out, err := ct.Run(cfg, nil, func(c *mpi.Comm, rk *recov.Rank) {
		if c.Rank() == 0 {
			attempts++
		}
		if c.Rank() == 2 {
			panic("application bug, not a crash")
		}
	})
	if err == nil {
		t.Fatal("rank panic swallowed")
	}
	var ue *recov.UnrecoverableError
	if errors.As(err, &ue) {
		t.Fatalf("non-crash failure misclassified as unrecoverable crash: %v", err)
	}
	if attempts != 1 || out.Attempts != 1 {
		t.Errorf("non-crash failure retried: %d attempts", attempts)
	}
}
