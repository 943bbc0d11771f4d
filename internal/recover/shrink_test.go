package recover_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	recov "repro/internal/recover"
)

// The shrink tests drive the full elastic arc on the 6-rank Summit
// node: a permanent kill exhausts the respawn budget, the survivors
// agree on the 5-rank membership, the pipeline is re-planned, the last
// committed cut migrates, and the run completes degraded.

// killScenario returns the fault plan that permanently kills rank 3 in
// the middle of the crash-free run.
func killScenario(t *testing.T, opts core.Options, seed int64) *netsim.FaultPlan {
	t.Helper()
	half := baselineTime(t, opts) / 2
	return &netsim.FaultPlan{Seed: seed, KillRank: 3, KillAt: half}
}

func TestShrinkSurvivesPermanentKill(t *testing.T) {
	opts := core.Options{Backend: core.BackendOSC}
	cfg := netsim.Summit(1)
	cfg.Faults = killScenario(t, opts, 31)
	pol := recov.Policy{MaxRestarts: 1, Shrink: true}
	res, out, err := measure(cfg, opts, true, pol)
	if err != nil {
		t.Fatalf("shrink recovery failed: %v", err)
	}
	if len(out.Shrinks) != 1 {
		t.Fatalf("shrinks %d, want 1 (outcome %+v)", len(out.Shrinks), out)
	}
	sh := out.Shrinks[0]
	if len(sh.Dead) != 1 || sh.Dead[0] != 3 {
		t.Errorf("dead set %v, want [3]", sh.Dead)
	}
	if sh.FromSize != 6 || sh.ToSize != 5 {
		t.Errorf("membership %d -> %d, want 6 -> 5", sh.FromSize, sh.ToSize)
	}
	if sh.CrashT <= 0 || sh.DetectT < sh.CrashT || sh.ResumeT <= sh.DetectT {
		t.Errorf("shrink timeline out of order: %+v", sh)
	}
	want := []int{0, 1, 2, 4, 5}
	if len(out.Survivors) != len(want) {
		t.Fatalf("survivors %v, want %v", out.Survivors, want)
	}
	for i, r := range want {
		if out.Survivors[i] != r {
			t.Fatalf("survivors %v, want %v", out.Survivors, want)
		}
	}
	if out.MTTRSeconds <= 0 {
		t.Errorf("shrunken run reports zero MTTR: %+v", out)
	}
	// The re-decomposed pipeline must still compute a correct transform.
	if math.IsNaN(res.RelErr) || res.RelErr > 1e-12 {
		t.Errorf("shrunken run round-trip error %g", res.RelErr)
	}
	if res.Stats.Faults.Kills != 0 {
		// res carries the final (shrunken) attempt's stats: dead ranks exit
		// before their kill time there, so no kill fires after the shrink.
		t.Errorf("kills %d on the post-shrink attempt, want 0", res.Stats.Faults.Kills)
	}
}

func TestShrinkMigratedStateMatchesFreshRun(t *testing.T) {
	// A lossless pipeline's values are decomposition-independent, so the
	// run that shrank 6 -> 5 mid-flight from migrated checkpoint state
	// must land on the same numerics as a from-scratch 5-rank run.
	opts := core.Options{Backend: core.BackendOSC}
	cfg := netsim.Summit(1)
	cfg.Faults = killScenario(t, opts, 32)
	res, out, err := measure(cfg, opts, true, recov.Policy{MaxRestarts: 1, Shrink: true})
	if err != nil || len(out.Shrinks) != 1 {
		t.Fatalf("shrink recovery: %v (shrinks %d)", err, len(out.Shrinks))
	}
	if out.Shrinks[0].Epoch < 0 {
		t.Fatalf("mid-run kill found no committed epoch to migrate: %+v", out.Shrinks[0])
	}

	freshCfg := netsim.Summit(1)
	freshCfg.GPUsPerNode = 5
	fresh := core.Measure[complex128](freshCfg, testN, opts, 2, true)
	if res.RelErr != fresh.RelErr {
		t.Errorf("migrated run relerr %v, fresh 5-rank run %v (not bit-identical)", res.RelErr, fresh.RelErr)
	}
}

func TestShrinkEngineEquivalence(t *testing.T) {
	// The shrunken run must be bit-identical to itself across the
	// sequential and parallel engines, lossy traffic included: same
	// shrink timeline, same end time, same numerics.
	opts := core.Options{Backend: core.BackendCompressed, Tolerance: 1e-6}
	plan := killScenario(t, opts, 33)

	run := func(parallel bool) (core.Result, recov.Outcome) {
		cfg := netsim.Summit(1)
		cfg.Parallel = parallel
		f := *plan
		cfg.Faults = &f
		res, out, err := measure(cfg, opts, true, recov.Policy{MaxRestarts: 1, Shrink: true})
		if err != nil {
			t.Fatalf("parallel=%v: shrink recovery failed: %v", parallel, err)
		}
		if len(out.Shrinks) != 1 {
			t.Fatalf("parallel=%v: shrinks %d, want 1", parallel, len(out.Shrinks))
		}
		return res, out
	}
	seqRes, seqOut := run(false)
	parRes, parOut := run(true)

	if seqOut.Result.Time != parOut.Result.Time {
		t.Errorf("virtual end time diverged: sequential %v, parallel %v", seqOut.Result.Time, parOut.Result.Time)
	}
	if seqOut.Attempts != parOut.Attempts {
		t.Errorf("attempts diverged: %d vs %d", seqOut.Attempts, parOut.Attempts)
	}
	for i := range seqOut.Shrinks {
		a, b := seqOut.Shrinks[i], parOut.Shrinks[i]
		if a.Attempt != b.Attempt || a.FromSize != b.FromSize || a.ToSize != b.ToSize ||
			a.Epoch != b.Epoch || a.CrashT != b.CrashT || a.DetectT != b.DetectT || a.ResumeT != b.ResumeT {
			t.Errorf("shrink %d diverged: %+v vs %+v", i, a, b)
		}
	}
	if seqOut.MTTRSeconds != parOut.MTTRSeconds {
		t.Errorf("MTTR diverged: %v vs %v", seqOut.MTTRSeconds, parOut.MTTRSeconds)
	}
	if seqRes.RelErr != parRes.RelErr {
		t.Errorf("numerical result diverged: %v vs %v", seqRes.RelErr, parRes.RelErr)
	}
}

func TestShrinkOffPreservesGiveUp(t *testing.T) {
	// With Policy.Shrink off (the default) a permanent kill must exhaust
	// the budget and surface the historic typed give-up diagnosis.
	opts := core.Options{Backend: core.BackendOSC}
	cfg := netsim.Summit(1)
	cfg.Faults = killScenario(t, opts, 34)
	_, out, err := measure(cfg, opts, false, recov.Policy{MaxRestarts: 1})
	if err == nil {
		t.Fatal("permanent kill with shrink disabled must fail")
	}
	var ue *recov.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("error is %T (%v), want *recov.UnrecoverableError", err, err)
	}
	if ue.Attempts != 2 || out.Attempts != 2 {
		t.Errorf("attempts %d/%d, want 2 (budget of 1 respawn)", ue.Attempts, out.Attempts)
	}
	if len(out.Shrinks) != 0 || out.Survivors != nil {
		t.Errorf("shrink state leaked into a non-shrink run: %+v", out)
	}
}

func TestShrinkDoubleKill(t *testing.T) {
	// A second permanent kill after the first shrink must trigger a
	// second arc: 6 -> 5 -> 4 ranks, both migrations intact.
	opts := core.Options{Backend: core.BackendOSC}
	half := baselineTime(t, opts) / 2
	cfg := netsim.Summit(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 35, KillRank: 3, KillAt: half,
		CrashSchedule: []netsim.CrashSpec{{Rank: 1, At: half * 1.2, Permanent: true}}}
	res, out, err := measure(cfg, opts, true, recov.Policy{MaxRestarts: 1, Shrink: true})
	if err != nil {
		t.Fatalf("double-kill shrink recovery failed: %v", err)
	}
	sizes := []int{}
	for _, sh := range out.Shrinks {
		sizes = append(sizes, sh.ToSize)
	}
	if len(out.Shrinks) < 1 {
		t.Fatalf("no shrink arcs recorded: %+v", out)
	}
	last := out.Shrinks[len(out.Shrinks)-1]
	if last.ToSize != 6-len(deadAll(out.Shrinks)) {
		t.Errorf("final membership %d with dead %v (arcs %v)", last.ToSize, deadAll(out.Shrinks), sizes)
	}
	if math.IsNaN(res.RelErr) || res.RelErr > 1e-12 {
		t.Errorf("doubly shrunken run round-trip error %g", res.RelErr)
	}
}

// deadAll unions the dead sets of all shrink arcs.
func deadAll(shrinks []recov.Shrink) []int {
	var out []int
	for _, sh := range shrinks {
		out = append(out, sh.Dead...)
	}
	return out
}
