package core

import (
	"math"

	"repro/internal/fft"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	recov "repro/internal/recover"
)

// Result summarizes one measured configuration — a row of the paper's
// figures and tables. A field the job did not measure is NaN.
type Result struct {
	GPUs int
	// ForwardTime is the virtual time of one forward 3-D FFT (seconds),
	// averaged over the measured iterations; NaN if Iters is 0.
	ForwardTime float64
	// Gflops is the 5·N·log2(N) rate of one forward transform; NaN if
	// Iters is 0.
	Gflops float64
	// RelErr is the global relative L2 error ‖x − IFFT(FFT(x))‖/‖x‖
	// (Table II's metric); NaN if WantErr is false.
	RelErr float64
	// Profile is rank 0's phase breakdown of the last timed transform.
	Profile Profile
	Stats   netsim.Stats
}

// Job is one FFT measurement: a plan built with Options on Machine
// transforms the deterministic random field of size N.
type Job struct {
	Machine netsim.Config
	N       [3]int
	Options Options
	// Iters timed forward transforms follow one untimed warmup.
	Iters int
	// WantErr adds one forward+inverse round trip for RelErr.
	WantErr bool
	// Recorder, when non-nil, receives the run's phase spans, wire
	// events and compression metrics. Recording only consumes wall-clock
	// time, never virtual time, so the results do not depend on it.
	Recorder *obs.Recorder
	// Recovery, when non-nil, runs the job under the crash-recovery
	// runtime (docs/ROBUSTNESS.md): the plan checkpoints after every
	// reshape, and on a watchdog crash verdict the controller rolls all
	// ranks back to the last committed epoch, respawns the run past the
	// crash, and resumes — up to the policy's restart budget.
	Recovery *recov.Policy
}

// Measure runs Job{cfg, n, opts, iters, wantErr} without a recorder or
// recovery and returns its result.
func Measure[C fft.Complex](cfg netsim.Config, n [3]int, opts Options, iters int, wantErr bool) Result {
	res, _, _ := Run[C](Job{Machine: cfg, N: n, Options: opts, Iters: iters, WantErr: wantErr})
	return res
}

// Run executes the job. The outcome reports the attempts and recovery
// timeline of a job with a Recovery policy; err is non-nil only under
// one, when the restart budget is exhausted (a typed
// *recov.UnrecoverableError) or the run failed for a reason that is not
// a crash.
func Run[C fft.Complex](job Job) (Result, recov.Outcome, error) {
	n, iters := job.N, job.Iters
	res := Result{GPUs: job.Machine.Ranks(), RelErr: math.NaN()}
	s := job.Options.SimScale
	if s == 0 {
		s = 1
	}
	flops := fft.FlopCount(s * n[0] * s * n[1] * s * n[2])
	body := func(c *mpi.Comm, rk *recov.Rank) {
		o := job.Options
		o.Recovery = rk
		pl := NewPlan[C](c, n, o)
		in := make([]C, pl.InBox().Count())
		FillBox(in, pl.InBox(), pl.InOrder(), 1)

		t0, t1 := 0.0, math.NaN()
		if iters > 0 {
			pl.Forward(in) // warmup
			c.Barrier()
			t0 = c.AllreduceFloat64("min", c.Now())
			for i := 0; i < iters; i++ {
				pl.Forward(in)
			}
			c.Barrier()
			t1 = c.AllreduceFloat64("max", c.Now())
		}

		relErr := math.NaN()
		if job.WantErr {
			spec := pl.Forward(in)
			// The reshape reuses its output buffer, so copy before the
			// inverse pipeline runs.
			specCopy := append([]C(nil), spec...)
			back := pl.Backward(specCopy)
			var errSq, normSq float64
			for i := range in {
				d := complex128(back[i]) - complex128(in[i])
				errSq += real(d)*real(d) + imag(d)*imag(d)
				v := complex128(in[i])
				normSq += real(v)*real(v) + imag(v)*imag(v)
			}
			errSq = c.AllreduceFloat64("sum", errSq)
			normSq = c.AllreduceFloat64("sum", normSq)
			relErr = math.Sqrt(errSq) / math.Sqrt(normSq)
		}
		if c.Rank() == 0 {
			res.ForwardTime = (t1 - t0) / float64(iters)
			res.RelErr = relErr
			res.Profile = pl.LastProfile()
		}
	}
	var out recov.Outcome
	if job.Recovery == nil {
		out.Result = mpi.RunWith(job.Machine, job.Recorder, func(c *mpi.Comm) { body(c, nil) })
	} else {
		ct := &recov.Controller{Policy: *job.Recovery}
		var err error
		if out, err = ct.Run(job.Machine, job.Recorder, body); err != nil {
			return res, out, err
		}
	}
	res.Gflops = flops / res.ForwardTime / 1e9
	res.Stats = out.Result.Stats
	return res, out, nil
}
