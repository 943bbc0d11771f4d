package main

import (
	"math"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// config is one cell of a workload: an FFT pipeline configuration
// (opts) or an all-to-all algorithm (algo).
type config struct {
	name string
	opts core.Options
	algo string
}

// workload is a fixed, paper-shaped set of cells on one machine size.
type workload struct {
	name string
	why  string
	// nodes sizes the machine as netsim.Summit(nodes): 6 GPUs per node.
	nodes int
	// FFT workloads: data-plane grid edge and the time plane's scale.
	n        int
	simScale int
	// roundTrip times forward then backward transforms on the field;
	// otherwise it times forward transforms, as core.Measure does.
	roundTrip bool
	// All-to-all workloads: bytes per rank pair.
	msgBytes int
	// timed is how many timed transforms (round trips on roundTrip
	// cells) or exchanges a cell runs after its warmup. Each is one host
	// sample; the virtual clock is read on the first.
	timed   int
	configs []config
}

func (w workload) fft() bool { return w.msgBytes == 0 }

func (w workload) grid() [3]int { return [3]int{w.n, w.n, w.n} }

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []workload{
	{
		name:  "fig4-768",
		why:   "Fig. 4 strong-scaling cell at 768 GPUs: plan construction and engine dispatch dominate host time",
		nodes: 128, n: 64, simScale: 16, timed: 2,
		configs: []config{
			{name: "fp64", opts: core.Options{Backend: core.BackendAlltoallv}},
			{name: "fp64-16", opts: core.Options{Backend: core.BackendCompressed, Method: compress.Cast16{}}},
		},
	},
	{
		name:  "roundtrip-128",
		why:   "Table II accuracy cell, real 128^3 data on 24 GPUs: FFT, pack and compression kernels dominate host time",
		nodes: 4, n: 128, simScale: 1, roundTrip: true, timed: 2,
		configs: []config{
			{name: "fp64", opts: core.Options{Backend: core.BackendAlltoallv}},
			{name: "fp64-32", opts: core.Options{Backend: core.BackendCompressed, Method: compress.Cast32{}}},
			{name: "fp64-16", opts: core.Options{Backend: core.BackendCompressed, Method: compress.Cast16{}}},
			{name: "etol-1e-4", opts: core.Options{Backend: core.BackendCompressed, Tolerance: 1e-4}},
		},
	},
}

// extraWorkloads run by name but are not in BENCHMARK.json. On a shared
// two-core machine the quartiles of fig3-384's run_s over ten runs lay
// up to 32% of the median apart, too far for it to gate changes; its
// virtual results and checks still hold.
var extraWorkloads = []workload{
	{
		name:  "fig3-384",
		why:   "Fig. 3 node-bandwidth cell at 384 GPUs, phantom payloads: pure engine and protocol work, no planning",
		nodes: 64, msgBytes: 81920, timed: 4,
		configs: []config{
			{name: "linear", algo: exchange.AlgoLinear},
			{name: "osc", algo: exchange.AlgoOSC},
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range append(workloads, extraWorkloads...) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Per-rank host timestamps taken inside the rank bodies. A host span is
// the earliest rank's start mark to the latest rank's end mark; the
// barriers around every timed call keep the spans of different steps
// from overlapping.
const (
	markSetupStart = iota
	markSetupEnd
	markWarmStart
	markWarmEnd
	numFixedMarks
)

// Timed iteration i has four marks of its own after the fixed ones.
func markFwdStart(i int) int { return numFixedMarks + 4*i }
func markFwdEnd(i int) int   { return numFixedMarks + 4*i + 1 }
func markBwdStart(i int) int { return numFixedMarks + 4*i + 2 }
func markBwdEnd(i int) int   { return numFixedMarks + 4*i + 3 }

type marks [][]time.Duration

// newMarks holds the marks of p ranks and timed iterations.
func newMarks(p, timed int) marks {
	m := make(marks, p)
	for r := range m {
		m[r] = make([]time.Duration, markFwdStart(timed))
	}
	return m
}

// spans returns the spans from mark from(i) to mark to(i) of every
// timed iteration i.
func (m marks) spans(timed int, from, to func(int) int) []interval {
	ivs := make([]interval, timed)
	for i := range ivs {
		ivs[i] = m.span(from(i), to(i))
	}
	return ivs
}

func (m marks) span(from, to int) interval {
	iv := interval{m[0][from], m[0][to]}
	for _, r := range m[1:] {
		iv.lo = min(iv.lo, r[from])
		iv.hi = max(iv.hi, r[to])
	}
	return iv
}

// interval is a host time span, measured from the process epoch.
type interval struct{ lo, hi time.Duration }

func (iv interval) secs() float64 { return (iv.hi - iv.lo).Seconds() }

// epoch anchors the host timestamps of one process.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// virt is the virtual-clock outcome of a cell. It is data-independent
// for every configuration here, so it must be bit-identical across
// repetitions and across field seeds.
type virt struct {
	Forward  float64 // seconds: first timed forward transform or exchange
	Backward float64 // seconds: first timed backward transform (round-trip cells)
	Rate     float64 // Gflop/s (FFT) or node GB/s (all-to-all)
	Profile  core.Profile
	Stats    netsim.Stats
}

// cell is one measured run of one config.
type cell struct {
	// Host spans.
	engine interval // the whole engine call
	setup  interval // engine call until every rank has constructed
	plan   interval // plan or exchange construction
	warmup interval
	// One span per timed iteration: forward transforms or exchanges,
	// and the backward transforms of round-trip cells.
	forward, backward []interval
	// Virtual clock and counters.
	v virt
	// Output checks: err is the measured error against budget (FFT
	// cells); delivered against volume (all-to-all cells).
	err, budget       float64
	delivered, volume int64
}

// samples are the host times of the cell's timed iterations, forward
// and backward together: the cell's samples of the end-to-end run_s.
func (c cell) samples() []float64 {
	xs := make([]float64, len(c.forward))
	for i, iv := range c.forward {
		xs[i] = iv.secs()
		if c.backward != nil {
			xs[i] += c.backward[i].secs()
		}
	}
	return xs
}

// medianSecs is the median length of spans, 0 when there are none.
func medianSecs(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	xs := make([]float64, len(ivs))
	for i, iv := range ivs {
		xs[i] = iv.secs()
	}
	return median(xs)
}

// runFFT runs one FFT config of w on the field of seed. ref is the
// serial reference spectrum of that field (forward-only cells) or nil.
func runFFT(w workload, cf config, seed uint64, rec *obs.Recorder, ref []complex128) cell {
	cfg := netsim.Summit(w.nodes)
	p := cfg.Ranks()
	n := w.grid()
	opts := cf.opts
	opts.SimScale = w.simScale
	m := newMarks(p, w.timed)
	errSq := make([]float64, p)
	normSq := make([]float64, p)
	var out cell
	start := now()
	res := mpi.RunWith(cfg, rec, func(c *mpi.Comm) {
		me := c.Rank()
		m[me][markSetupStart] = now()
		pl := core.NewPlan[complex128](c, n, opts)
		m[me][markSetupEnd] = now()
		c.Barrier()
		in := make([]complex128, pl.InBox().Count())
		core.FillBox(in, pl.InBox(), pl.InOrder(), seed)
		// The reshape reuses its output buffer: the inverse pipeline
		// runs on a copy of the spectrum.
		var specCopy []complex128
		backward := func(spec []complex128) []complex128 {
			specCopy = append(specCopy[:0], spec...)
			return pl.Backward(specCopy)
		}
		m[me][markWarmStart] = now()
		if spec := pl.Forward(in); w.roundTrip {
			backward(spec)
		}
		m[me][markWarmEnd] = now()
		c.Barrier()
		var spec, back []complex128
		for i := 0; i < w.timed; i++ {
			t0 := c.AllreduceFloat64("min", c.Now())
			m[me][markFwdStart(i)] = now()
			spec = pl.Forward(in)
			m[me][markFwdEnd(i)] = now()
			prof := pl.LastProfile()
			c.Barrier()
			t1 := c.AllreduceFloat64("max", c.Now())
			var t2, t3 float64
			if w.roundTrip {
				t2 = c.AllreduceFloat64("min", c.Now())
				m[me][markBwdStart(i)] = now()
				back = backward(spec)
				m[me][markBwdEnd(i)] = now()
				prof = addProfiles(prof, pl.LastProfile())
				c.Barrier()
				t3 = c.AllreduceFloat64("max", c.Now())
			}
			if i == 0 && me == 0 {
				out.v.Forward, out.v.Backward, out.v.Profile = t1-t0, t3-t2, prof
			}
		}
		if w.roundTrip {
			errSq[me], normSq[me] = l2Diff(back, in)
		} else {
			errSq[me], normSq[me] = spectrumDiff(spec, pl.OutBox(), pl.OutOrder(), ref, n)
		}
	})
	out.engine = interval{start, now()}
	out.setup = m.setupEnd(start)
	out.plan = m.span(markSetupStart, markSetupEnd)
	out.warmup = m.span(markWarmStart, markWarmEnd)
	out.forward = m.spans(w.timed, markFwdStart, markFwdEnd)
	if w.roundTrip {
		out.backward = m.spans(w.timed, markBwdStart, markBwdEnd)
	}
	s := w.simScale
	out.v.Rate = fft.FlopCount(s*n[0]*s*n[1]*s*n[2]) / out.v.Forward / 1e9
	out.v.Stats = res.Stats
	out.err = relNorm(errSq, normSq)
	out.budget = errorBudget(opts, w.roundTrip, n)
	return out
}

// setupEnd is the set-up span of a cell: from the engine call until the
// last rank returned from construction.
func (m marks) setupEnd(start time.Duration) interval {
	return interval{start, m.span(markSetupStart, markSetupEnd).hi}
}

func addProfiles(a, b core.Profile) core.Profile {
	return core.Profile{
		Pack: a.Pack + b.Pack, Exchange: a.Exchange + b.Exchange,
		Unpack: a.Unpack + b.Unpack, FFT: a.FFT + b.FFT, Scale: a.Scale + b.Scale,
	}
}

// runA2A runs one all-to-all config of w: construction, a warmup
// exchange and w.timed timed exchanges, each between barriers. The
// virtual rate is the first timed exchange's, as exchange.NodeBandwidth
// gives it for one iteration.
func runA2A(w workload, cf config, rec *obs.Recorder) cell {
	cfg := netsim.Summit(w.nodes)
	p := cfg.Ranks()
	sizes := make([]int, p)
	for i := range sizes {
		sizes[i] = w.msgBytes
	}
	m := newMarks(p, w.timed)
	var out cell
	var t0, t1 float64
	start := now()
	res := mpi.RunWith(cfg, rec, func(c *mpi.Comm) {
		me := c.Rank()
		m[me][markSetupStart] = now()
		var osc *exchange.OSC
		if cf.algo == exchange.AlgoOSC {
			osc = exchange.NewOSCPhantom(c, exchange.Uniform(w.msgBytes), true)
		}
		m[me][markSetupEnd] = now()
		c.Barrier()
		run := func() {
			if osc != nil {
				osc.ExchangeN()
			} else {
				exchange.LinearAlltoallvN(c, sizes)
			}
		}
		m[me][markWarmStart] = now()
		run()
		m[me][markWarmEnd] = now()
		c.Barrier()
		for i := 0; i < w.timed; i++ {
			a := c.AllreduceFloat64("min", c.Now())
			m[me][markFwdStart(i)] = now()
			run()
			m[me][markFwdEnd(i)] = now()
			c.Barrier()
			b := c.AllreduceFloat64("max", c.Now())
			if i == 0 && me == 0 {
				t0, t1 = a, b
			}
		}
	})
	out.engine = interval{start, now()}
	out.setup = m.setupEnd(start)
	out.plan = m.span(markSetupStart, markSetupEnd)
	out.warmup = m.span(markWarmStart, markWarmEnd)
	out.forward = m.spans(w.timed, markFwdStart, markFwdEnd)
	// The Fig. 3 metric: bytes of one exchange over its virtual time and
	// the node count.
	out.volume = int64(p) * int64(p) * int64(w.msgBytes)
	out.v.Forward = t1 - t0
	out.v.Rate = float64(out.volume) / out.v.Forward / float64(cfg.Nodes) / 1e9
	out.v.Stats = res.Stats
	out.delivered = deliveredBytes(cf.algo, res.Stats, controlBytes(w))
	out.err = math.NaN()
	return out
}

// deliveredBytes is the exchange payload netsim delivered in a cell: the
// put volume for the one-sided ring, and otherwise every delivered byte
// minus the collectives' share (control).
func deliveredBytes(algo string, s netsim.Stats, control int64) int64 {
	if algo == exchange.AlgoOSC {
		return s.BytesPut
	}
	return s.BytesIntra + s.BytesInter + s.BytesLocal - control
}

// controlBytes returns the bytes the all-to-all rank body moves with
// its barriers and reductions alone, from a run of that body without
// the exchanges.
func controlBytes(w workload) int64 {
	res := mpi.Run(netsim.Summit(w.nodes), func(c *mpi.Comm) {
		c.Barrier()
		c.Barrier()
		for i := 0; i < w.timed; i++ {
			c.AllreduceFloat64("min", c.Now())
			c.Barrier()
			c.AllreduceFloat64("max", c.Now())
		}
	})
	s := res.Stats
	return s.BytesIntra + s.BytesInter + s.BytesLocal
}

// runCell dispatches one config of w.
func runCell(w workload, cf config, seed uint64, rec *obs.Recorder, ref []complex128) cell {
	if w.fft() {
		return runFFT(w, cf, seed, rec, ref)
	}
	return runA2A(w, cf, rec)
}
