package exchange

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	recov "repro/internal/recover"
)

// Algorithms available to the bandwidth harness.
const (
	AlgoLinear   = "linear"
	AlgoPairwise = "pairwise"
	AlgoBruck    = "bruck" // log-round aggregated algorithm (small messages)
	AlgoOSC      = "osc"
	AlgoOSCNaive = "osc-naive" // ring without the node-aware permutation
	// AlgoOSCComp is the compressed one-sided exchange on real payloads
	// (FP64→FP32 cast); its bandwidth is computed over the logical bytes,
	// so the speedup over plain osc shows the compression win.
	AlgoOSCComp = "osc-comp"
)

// Spec parameterizes the bandwidth harness beyond the named algorithm
// presets: the compressed algorithm's method, pipeline depth and overlap
// become selectable (the autotuner's winners and the ablations need
// them). The zero Method / Chunks / DisablePipeline keep the presets'
// fixed configuration (Cast32, 4 chunks, pipelined), so Spec{Algo: a}
// behaves exactly like the plain algorithm string.
type Spec struct {
	Algo   string
	Method compress.Method // AlgoOSCComp only; nil selects Cast32
	Chunks int             // AlgoOSCComp only; 0 selects 4
	// DisablePipeline synchronizes the compression stream before any put
	// (AlgoOSCComp only; the §V-B ablation baseline).
	DisablePipeline bool
}

func (s Spec) withDefaults() Spec {
	if s.Method == nil {
		s.Method = compress.Cast32{}
	}
	if s.Chunks == 0 {
		s.Chunks = 4
	}
	return s
}

// Job is one all-to-all measurement: Spec's exchange of MsgBytes per
// process pair on Machine (phantom payloads, except AlgoOSCComp which
// compresses real ones).
type Job struct {
	Machine  netsim.Config
	Spec     Spec
	MsgBytes int
	// Iters timed exchanges follow one untimed warmup.
	Iters int
	// Recorder, when non-nil, receives the run's spans, wire events and
	// metrics; it never changes the measured virtual times.
	Recorder *obs.Recorder
	// Recovery, when non-nil, runs the job under the crash-recovery
	// runtime (docs/ROBUSTNESS.md): every iteration ends with an epoch
	// checkpoint carrying the exchange's healing ledger, and on a
	// watchdog crash verdict the controller rolls back, respawns, and
	// resumes the sweep instead of failing it.
	Recovery *recov.Policy
}

// Result is one measured exchange. A field the job did not measure (no
// iteration was timed) is NaN.
type Result struct {
	// NodeBW is the Fig. 3 metric in bytes/s: total bytes sent divided
	// by the exchange time and the node count.
	NodeBW float64
	// Seconds is the virtual time of one exchange.
	Seconds float64
}

// NodeBandwidth runs a uniform all-to-all (msgBytes per pair) iters
// times on the machine and returns the average node bandwidth in
// bytes/s. Setup (window creation, warmup iteration) is excluded from
// the measured window.
func NodeBandwidth(cfg netsim.Config, algo string, msgBytes, iters int) float64 {
	res, _, _ := Run(Job{Machine: cfg, Spec: Spec{Algo: algo}, MsgBytes: msgBytes, Iters: iters})
	return res.NodeBW
}

// Run executes the job. Under a Recovery policy the result is computed
// over the iterations the final attempt actually executed (replayed
// iterations are restored, not re-run), so a recovered measurement
// stays well-defined; the outcome reports the attempts and recovery
// timeline, and err is non-nil when the restart budget is exhausted or
// the run failed for a reason that is not a crash.
func Run(job Job) (Result, recov.Outcome, error) {
	spec := job.Spec.withDefaults()
	algo, msgBytes := spec.Algo, job.MsgBytes
	var start, end float64
	var performed, pFinal int
	body := func(c *mpi.Comm, rk *recov.Rank) {
		// After an elastic shrink the communicator is smaller than the
		// machine; everything below sizes itself off the live membership.
		p := c.Size()
		sizes := make([]int, p)
		for i := range sizes {
			sizes[i] = msgBytes
		}
		var osc *OSC
		var cosc *CompressedOSC
		var send [][]float64
		switch algo {
		case AlgoOSC:
			osc = NewOSCPhantom(c, Uniform(msgBytes), true)
		case AlgoOSCNaive:
			osc = NewOSCPhantom(c, Uniform(msgBytes), false)
		case AlgoOSCComp:
			count := msgBytes / 8
			if count < 1 {
				count = 1
			}
			stream := gpu.NewStream(gpu.V100(), c)
			stream.SetObserver(c.Obs())
			cosc = NewCompressedOSC(c, spec.Method, stream, spec.Chunks, UniformCount(count))
			cosc.SetLabel("bench")
			cosc.Pipelined = !spec.DisablePipeline
			send = benchPayload(c.Rank(), p, count)
		}
		run := func() {
			switch algo {
			case AlgoLinear:
				LinearAlltoallvN(c, sizes)
			case AlgoPairwise:
				PairwiseAlltoallvN(c, sizes)
			case AlgoBruck:
				BruckAlltoallN(c, msgBytes)
			case AlgoOSC, AlgoOSCNaive:
				osc.ExchangeN()
			case AlgoOSCComp:
				cosc.Exchange(send)
			default:
				panic(fmt.Sprintf("exchange: unknown algorithm %q", algo))
			}
		}
		// One iteration = one recovery epoch: epochs the committed
		// checkpoint covers are skipped (their ledger state is restored),
		// the rest execute and checkpoint. Without a policy rk is nil and
		// every step just runs. myPerformed is rank-local (the bodies run
		// concurrently under the parallel engine); rank 0 publishes it
		// after the closing barrier.
		epoch, myPerformed := 0, 0
		step := func(measured bool) {
			epoch++
			if resume := rk.Resume(); epoch <= resume {
				if epoch == resume && cosc != nil {
					var snap []byte
					var err error
					if rk.Migrating() {
						// The snapshot was committed by the previous (larger)
						// membership: fetch this rank's old ledger and remap
						// its per-peer records onto the surviving ranks.
						snap, err = rk.RestorePeer(rk.PrevRank())
						if err == nil {
							snap, err = RemapLedgerState(snap, rk.OldToNew(), c.Size())
						}
					} else {
						snap, err = rk.Restore()
					}
					if err != nil {
						panic(fmt.Sprintf("exchange: rank %d cannot restore epoch %d: %v", c.Rank(), epoch, err))
					}
					if err := cosc.RestoreLedger(snap); err != nil {
						panic(fmt.Sprintf("exchange: rank %d epoch %d: %v", c.Rank(), epoch, err))
					}
				}
				return
			}
			run()
			if measured {
				myPerformed++
			}
			if rk != nil {
				var snap []byte
				if cosc != nil {
					snap = cosc.LedgerState()
				}
				rk.Checkpoint(epoch, snap)
			}
		}
		step(false) // warmup
		c.Barrier()
		t0 := c.AllreduceFloat64("min", c.Now())
		for i := 0; i < job.Iters; i++ {
			step(true)
		}
		c.Barrier()
		t1 := c.AllreduceFloat64("max", c.Now())
		if c.Rank() == 0 {
			start, end = t0, t1
			performed = myPerformed
			pFinal = p
		}
	}
	var out recov.Outcome
	if job.Recovery == nil {
		out.Result = mpi.RunWith(job.Machine, job.Recorder, func(c *mpi.Comm) { body(c, nil) })
	} else {
		ct := &recov.Controller{Policy: *job.Recovery}
		var err error
		if out, err = ct.Run(job.Machine, job.Recorder, body); err != nil {
			return Result{NodeBW: math.NaN(), Seconds: math.NaN()}, out, err
		}
	}
	if performed == 0 || end <= start {
		return Result{NodeBW: math.NaN(), Seconds: math.NaN()}, out, nil
	}
	// Every measured iteration of the final attempt ran at that attempt's
	// membership size (replays are restored, not re-run), so the byte
	// total uses the final comm size — after a shrink that is smaller
	// than the machine, and the outcome records the degradation.
	total := float64(performed) * float64(pFinal) * float64(pFinal) * float64(msgBytes)
	elapsed := end - start
	return Result{
		NodeBW:  total / elapsed / float64(job.Machine.Nodes),
		Seconds: elapsed / float64(performed),
	}, out, nil
}

// benchPayload builds deterministic pseudo-data in (-1, 1) for every
// destination rank.
func benchPayload(rank, p, count int) [][]float64 {
	send := make([][]float64, p)
	for d := range send {
		send[d] = make([]float64, count)
		for i := range send[d] {
			send[d][i] = float64((rank*31+d*17+i*13)%2000-1000) / 1000
		}
	}
	return send
}
