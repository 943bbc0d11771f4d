// Command fftbench regenerates Fig. 4 of the paper: strong scaling of
// the distributed 3-D FFT, in Gflop/s (left) and speedup over the FP64
// baseline (right), for the four configurations of the paper:
//
//	fp64     — FP64 pipeline, classical MPI_Alltoallv (solid blue)
//	fp32     — FP32 pipeline, classical MPI_Alltoallv (solid orange)
//	fp64-32  — FP64 compute, FP64→FP32 compressed OSC exchange
//	fp64-16  — FP64 compute, FP64→FP16 compressed OSC exchange
//
// The paper ran 1024³ on up to 1536 GPUs; the default here is 128³ on
// the same GPU counts (see EXPERIMENTS.md for the scale discussion).
//
// Usage:
//
//	go run ./cmd/fftbench [-n 128] [-gpus 12,24,...] [-iters 1] [-configs fp64,fp32,fp64-32,fp64-16]
//	                      [-trace out.json] [-metrics] [-json bench.json]
//
// -trace writes a Chrome-trace JSON (chrome://tracing / Perfetto) of
// the last measured cell; -metrics prints its phase-breakdown report;
// -json writes the versioned bench artifact (every cell's virtual-time
// results, achieved compression, model-vs-measured exchange deltas, and
// trace analysis) that cmd/benchdiff gates regressions against.
// Compressed configs always report their achieved (not just nominal)
// compression ratio per reshape after the table.
package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/cmd/internal/driver"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/plot"
	recov "repro/internal/recover"
	"repro/internal/tune"
)

// config pairs a named pipeline configuration with the options that
// build it. fp32 selects the complex64 pipeline (8-byte elements on the
// wire instead of 16), which is what the cost model needs to know too.
type config struct {
	name string
	opts core.Options
	fp32 bool
}

func (c config) elemBytes() int {
	if c.fp32 {
		return 8
	}
	return 16
}

// run measures the configuration as one job (Options, precision and
// SimScale filled in here).
func (c config) run(job core.Job, simScale int) (core.Result, recov.Outcome, error) {
	job.Options = c.opts
	job.Options.SimScale = simScale
	if c.fp32 {
		return core.Run[complex64](job)
	}
	return core.Run[complex128](job)
}

func configByName(name string) (config, bool) {
	switch name {
	case "fp64":
		return config{name: name, opts: core.Options{Backend: core.BackendAlltoallv}}, true
	case "fp32":
		return config{name: name, opts: core.Options{Backend: core.BackendAlltoallv}, fp32: true}, true
	case "fp64-32":
		return config{name: name, opts: core.Options{Backend: core.BackendCompressed, Method: compress.Cast32{}}}, true
	case "fp64-16":
		return config{name: name, opts: core.Options{Backend: core.BackendCompressed, Method: compress.Cast16{}}}, true
	case "fp64-bf16":
		return config{name: name, opts: core.Options{Backend: core.BackendCompressed, Method: compress.CastBF16{}}}, true
	case "fp64-32-2s":
		// Compression over the two-sided transport (ablation).
		return config{name: name, opts: core.Options{Backend: core.BackendCompressedTwoSided, Method: compress.Cast32{}}}, true
	case "osc":
		// Uncompressed one-sided exchange (isolates the OSC gain).
		return config{name: name, opts: core.Options{Backend: core.BackendOSC}}, true
	case "fp64-pencil":
		// Reduced-reshape configuration (pencil-shaped input/output).
		return config{name: name, opts: core.Options{Backend: core.BackendAlltoallv, PencilIO: true}}, true
	}
	return config{}, false
}

// tuningRows pairs each tuned stage's decision record with the run's
// measured exchange-time histogram, and publishes the decision and the
// predicted-vs-measured gap as metrics on the run's recorder.
func tuningRows(cell *tune.Cell, rec *obs.Recorder) []analyze.TuningRow {
	out := make([]analyze.TuningRow, 0, len(cell.Stages))
	for _, st := range cell.Stages {
		tr := analyze.TuningRow{
			Label: st.Label, Algo: st.Algo, Chunks: st.Chunks, Method: st.Method,
			PredictedS: st.PredictedS, ProbedS: st.ProbedS, Candidates: st.Candidates,
		}
		if h, ok := rec.Metrics().Hist("exchange/" + st.Label + "/time_s"); ok && h.Count > 0 {
			tr.MeasuredS = h.Mean()
			if st.PredictedS > 0 {
				tr.Gap = tr.MeasuredS / st.PredictedS
			}
		}
		rec.Metrics().Set("tune/"+st.Label+"/predicted_s", st.PredictedS)
		if tr.Gap > 0 {
			rec.Metrics().Set("tune/"+st.Label+"/gap", tr.Gap)
		}
		rec.Metrics().Add("tune/candidates", int64(st.Candidates))
		out = append(out, tr)
	}
	return out
}

// modelDeltas pairs the cost model's per-reshape prediction with the
// measured exchange-time histograms of the run.
func modelDeltas(rec *obs.Recorder, machine netsim.Config, n [3]int, c config, simScale int) []analyze.ModelDelta {
	opts := c.opts
	opts.SimScale = simScale
	var out []analyze.ModelDelta
	for _, est := range core.PredictExchanges(machine, n, opts, c.elemBytes()) {
		h, ok := rec.Metrics().Hist("exchange/" + est.Label + "/time_s")
		if !ok || h.Count == 0 || est.Predicted <= 0 {
			continue
		}
		d := analyze.ModelDelta{Label: est.Label, Measured: h.Mean(), Predicted: est.Predicted}
		d.Ratio = d.Measured / d.Predicted
		out = append(out, d)
	}
	return out
}

func main() {
	nFlag := flag.Int("n", 128, "cubic data size per dimension")
	simFlag := flag.Int("sim", 1024, "simulated problem size per dimension (time plane; must be a multiple of -n)")
	iters := flag.Int("iters", 1, "measured iterations per point")
	configsFlag := flag.String("configs", "fp64,fp32,fp64-32,fp64-16", "configurations")
	doPlot := flag.Bool("plot", false, "render the figure as an ASCII chart")
	d := driver.New("fftbench", nil)
	d.GPUListFlag("12,24,48,96,192,384,768,1536", "comma-separated GPU counts (multiples of 6)")
	d.ObsFlags("write a Chrome-trace JSON of the last measured cell to this file",
		"print the phase-breakdown/metrics report of the last measured cell")
	d.JSONFlag()
	d.FaultFlags()
	d.ParallelFlag("run the simulator's parallel engine (bit-identical results; docs/DETERMINISM.md)")
	d.TuneFlags("tune the exchange configuration per machine and add a 'tuned' config (docs/TUNING.md)",
		"per-stage error budget for the autotuner's compressed candidates")
	d.TraceNote = "# trace written: %s (%s) — open in chrome://tracing or ui.perfetto.dev\n"
	d.Parse()

	n := [3]int{*nFlag, *nFlag, *nFlag}
	if *simFlag%*nFlag != 0 {
		d.Fail(fmt.Errorf("-sim must be a multiple of -n"))
	}
	simScale := *simFlag / *nFlag
	var configs []config
	for _, name := range strings.Split(*configsFlag, ",") {
		c, ok := configByName(strings.TrimSpace(name))
		if !ok {
			d.Fail(fmt.Errorf("unknown config %q", name))
		}
		configs = append(configs, c)
	}
	// -autotune computes a plan (and saves it to -tuneplan when given);
	// -tuneplan alone replays a saved plan. Either adds the "tuned"
	// configuration to the table.
	if d.Tuning() {
		configs = append(configs, config{name: "tuned"})
	}

	fmt.Printf("# Fig. 4 — strong scaling, %d^3 simulated problem (%d^3 data)\n", *simFlag, *nFlag)
	fmt.Printf("%8s", "GPUs")
	for _, c := range configs {
		fmt.Printf("%12s", c.name+" GF/s")
	}
	for _, c := range configs {
		fmt.Printf("%12s", c.name+" spd")
	}
	fmt.Println()

	series := make([]plot.Series, len(configs))
	for i, c := range configs {
		series[i].Name = c.name
	}
	var labels []string
	artifact := &analyze.Artifact{
		Tool: "fftbench",
		Config: map[string]string{
			"n": fmt.Sprint(*nFlag), "sim": fmt.Sprint(*simFlag),
			"iters": fmt.Sprint(*iters), "configs": *configsFlag,
		},
	}
	d.Provenance(artifact.Config)
	// One recorder per (config, GPU-count) cell; recorders keeps the last
	// measured row's recorder per config for the post-table summaries.
	recorders := make([]*obs.Recorder, len(configs))
	for _, g := range d.GPUs {
		machine := d.Machine(g)
		var tunedCell *tune.Cell
		if d.Tuning() {
			tunedCell = d.TunedCell(machine, tune.FFTShape(n, simScale, false, false),
				func(m netsim.Config, sp tune.Space) (*tune.Cell, error) {
					return tune.FFT[complex128](m, n, core.Options{SimScale: simScale}, sp)
				})
			fmt.Printf("# tuned @ %d GPUs:", g)
			for _, st := range tunedCell.Stages {
				fmt.Printf(" %s=%s", st.Label, driver.DescribeChoice(st))
			}
			fmt.Println()
		}
		gflops := make([]float64, len(configs))
		for i, c := range configs {
			if c.name == "tuned" {
				c.opts = core.Options{Tune: tunedCell}
			}
			cell := fmt.Sprintf("%s/%dgpus", c.name, g)
			rec := d.Recorder(cell, fmt.Sprintf("%s @ %d GPUs", c.name, g))
			res, out, err := c.run(core.Job{Machine: machine, N: n, Iters: *iters, Recorder: rec, Recovery: d.Policy()}, simScale)
			d.CheckRun(cell, out, err)
			gflops[i] = res.Gflops
			recorders[i] = rec
			if d.JSON != "" {
				prec := 64
				if c.fp32 {
					prec = 32
				}
				row := analyze.Row{
					Name: c.name, GPUs: g, Precision: prec,
					Seconds: res.ForwardTime, Gflops: res.Gflops,
					Compression: analyze.CompressionRows(rec.Metrics().CompressionStats()),
					Faults:      analyze.FaultRowFrom(rec.Metrics()),
					Errors:      analyze.ErrorRows(d.Tel.Tracker(), cell),
				}
				if c.name == "tuned" {
					// Tuned rows carry the decision record instead of the
					// fixed-config model deltas (the cost model is keyed on
					// a single backend, which a tuned plan need not have).
					row.Tuning = tuningRows(tunedCell, rec)
				} else {
					row.Model = modelDeltas(rec, machine, n, c, simScale)
				}
				s := analyze.Summarize(analyze.FromRecorder(rec), 0)
				row.Analysis = &s
				artifact.Machine = rec.Machine()
				artifact.Rows = append(artifact.Rows, row)
			}
		}
		fmt.Printf("%8d", g)
		labels = append(labels, fmt.Sprint(g))
		for i, gf := range gflops {
			fmt.Printf("%12.1f", gf)
			series[i].Values = append(series[i].Values, gf)
		}
		base := gflops[0]
		for _, gf := range gflops {
			fmt.Printf("%12.2f", gf/base)
		}
		fmt.Println()
	}
	// Achieved (not nominal) compression per reshape, from the metrics of
	// each config's last measured row.
	for i, c := range configs {
		stats := recorders[i].Metrics().CompressionStats()
		if len(stats) == 0 {
			continue
		}
		fmt.Printf("# %s achieved compression:", c.name)
		for _, s := range stats {
			fmt.Printf(" %s %.2fx", s.Label, s.Ratio())
		}
		fmt.Println()
	}

	d.Finish(artifact)
	if *doPlot {
		fmt.Println()
		fmt.Print(plot.Chart("Gflop/s vs GPUs (log scale)", labels, series, 60, 14, true))
	}
	d.Close()
}
