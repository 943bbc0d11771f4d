package exchange_test

import (
	"errors"
	"testing"

	"repro/internal/exchange"
	"repro/internal/netsim"
	recov "repro/internal/recover"
)

// TestBandwidthHarnessShrinks drives the recoverable bandwidth harness
// through a permanent rank loss: the respawn budget burns out, the
// survivors shrink, the compressed algorithm's healing ledger is
// remapped onto the new membership, and the sweep finishes with a
// well-defined (degraded) bandwidth.
func TestBandwidthHarnessShrinks(t *testing.T) {
	const msg, iters = 4096, 3
	cfg := netsim.Summit(1)
	// Time the kill past the first measured iteration so a committed
	// epoch exists and the migrate branch of the restore path runs.
	clean := netsim.Summit(1)
	job := exchange.Job{Machine: clean, Spec: exchange.Spec{Algo: exchange.AlgoOSCComp},
		MsgBytes: msg, Iters: iters, Recovery: &recov.Policy{}}
	res, _, err := exchange.Run(job)
	base := res.NodeBW
	if err != nil || base <= 0 {
		t.Fatalf("clean run failed: bw=%g err=%v", base, err)
	}
	cleanTime := float64(iters*2) * float64(cfg.Ranks()) * float64(cfg.Ranks()) * float64(msg) / base / float64(cfg.Nodes)
	cfg.Faults = &netsim.FaultPlan{Seed: 91, KillRank: 2, KillAt: cleanTime / 4}

	job.Machine = cfg
	job.Recovery = &recov.Policy{MaxRestarts: 1, Shrink: true}
	res, out, err := exchange.Run(job)
	bw := res.NodeBW
	if err != nil {
		t.Fatalf("shrunken run failed: %v", err)
	}
	if len(out.Shrinks) != 1 {
		t.Fatalf("shrinks = %+v, want exactly one", out.Shrinks)
	}
	sh := out.Shrinks[0]
	if sh.FromSize != 6 || sh.ToSize != 5 || len(sh.Dead) != 1 || sh.Dead[0] != 2 {
		t.Errorf("shrink record %+v, want 6->5 losing rank 2", sh)
	}
	if bw <= 0 {
		t.Errorf("post-shrink bandwidth %g, want > 0", bw)
	}
	if out.Survivors == nil {
		t.Error("outcome does not record the surviving membership")
	}

	// Shrink off: same kill must still surface the historic give-up.
	job.Recovery = &recov.Policy{MaxRestarts: 1}
	_, _, err = exchange.Run(job)
	var ur *recov.UnrecoverableError
	if err == nil {
		t.Fatal("kill with Shrink off did not fail")
	} else if !errors.As(err, &ur) {
		t.Fatalf("kill with Shrink off returned %T (%v), want *UnrecoverableError", err, err)
	}
}
