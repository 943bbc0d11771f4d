// Command alltoallbench regenerates Fig. 3 of the paper: average node
// bandwidth of the all-to-all implementations as the number of GPUs
// grows, at a fixed message size per process pair (80 KB by default).
//
// Usage:
//
//	go run ./cmd/alltoallbench [-msg 81920] [-iters 2] [-gpus 6,12,...] [-algos linear,osc]
//	                           [-trace out.json] [-metrics] [-json bench.json]
//
// The osc-comp algorithm runs the compressed one-sided exchange on real
// payloads; its achieved compression ratio is printed after the table.
// -json writes the versioned bench artifact (per-cell node bandwidth,
// achieved compression, trace analysis) that cmd/benchdiff gates
// regressions against.
package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/cmd/internal/driver"
	"repro/internal/exchange"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/plot"
	"repro/internal/tune"
)

// tuningRows serializes the tuned cell's decision record with the run's
// measured per-exchange seconds, publishing the decision and the
// predicted-vs-measured gap as metrics on the run's registry.
func tuningRows(cell *tune.Cell, measured float64, m *obs.Metrics) []analyze.TuningRow {
	out := make([]analyze.TuningRow, 0, len(cell.Stages))
	for _, st := range cell.Stages {
		tr := analyze.TuningRow{
			Label: st.Label, Algo: st.Algo, Chunks: st.Chunks, Method: st.Method,
			PredictedS: st.PredictedS, ProbedS: st.ProbedS, Candidates: st.Candidates,
			MeasuredS: measured,
		}
		if st.PredictedS > 0 && measured > 0 {
			tr.Gap = measured / st.PredictedS
		}
		m.Set("tune/"+st.Label+"/predicted_s", st.PredictedS)
		if tr.Gap > 0 {
			m.Set("tune/"+st.Label+"/gap", tr.Gap)
		}
		m.Add("tune/candidates", int64(st.Candidates))
		out = append(out, tr)
	}
	return out
}

func main() {
	msg := flag.Int("msg", 80*1024, "message size per process pair in bytes")
	iters := flag.Int("iters", 2, "measured iterations per point")
	algosFlag := flag.String("algos", "linear,osc", "algorithms: linear,pairwise,bruck,osc,osc-naive,osc-comp")
	doPlot := flag.Bool("plot", false, "render the figure as an ASCII chart")
	d := driver.New("alltoallbench", nil)
	d.GPUListFlag("6,12,24,48,96,192,384,768,1536", "comma-separated GPU counts (multiples of 6)")
	d.ObsFlags("write a Chrome-trace JSON of the last measured cell to this file",
		"print the metrics report of the last measured cell")
	d.JSONFlag()
	d.FaultFlags()
	d.ParallelFlag("run the simulator's parallel engine (bit-identical results; docs/DETERMINISM.md)")
	d.TuneFlags("tune the exchange per machine and add a 'tuned' algorithm (docs/TUNING.md)",
		"error budget for the autotuner's compressed candidates")
	d.Parse()

	algos := strings.Split(*algosFlag, ",")
	// -autotune computes a plan (and saves it to -tuneplan when given);
	// -tuneplan alone replays a saved plan. Either adds the "tuned"
	// column to the table.
	if d.Tuning() {
		algos = append(algos, "tuned")
	}

	fmt.Printf("# Fig. 3 — average node bandwidth (GB/s), %d KB per pair\n", *msg/1024)
	fmt.Printf("%8s", "GPUs")
	for _, a := range algos {
		fmt.Printf("%14s", a)
	}
	fmt.Println()
	series := make([]plot.Series, len(algos))
	var labels []string
	for i, a := range algos {
		series[i].Name = a
	}
	artifact := &analyze.Artifact{
		Tool: "alltoallbench",
		Config: map[string]string{
			"msg": fmt.Sprint(*msg), "iters": fmt.Sprint(*iters), "algos": *algosFlag,
		},
	}
	d.Provenance(artifact.Config)
	// recorders keeps the last measured cell's recorder per algorithm so
	// achieved compression can be reported after the table.
	recorders := make([]*obs.Recorder, len(algos))
	for _, g := range d.GPUs {
		machine := d.Machine(g)
		var tunedCell *tune.Cell
		var tunedSpec exchange.Spec
		if d.Tuning() {
			tunedCell = d.TunedCell(machine, tune.AlltoallShape(*msg),
				func(m netsim.Config, sp tune.Space) (*tune.Cell, error) { return tune.Alltoall(m, *msg, sp) })
			sp, err := tunedCell.BenchSpec()
			if err != nil {
				d.Fail(err)
			}
			tunedSpec = sp
			fmt.Printf("# tuned @ %d GPUs: %s\n", g, driver.DescribeChoice(tunedCell.Stages[0]))
		}
		fmt.Printf("%8d", g)
		labels = append(labels, fmt.Sprint(g))
		for i, a := range algos {
			cell := fmt.Sprintf("%s/%dgpus", a, g)
			rec := d.Recorder(cell, fmt.Sprintf("%s @ %d GPUs", a, g))
			spec := exchange.Spec{Algo: a}
			if a == "tuned" {
				spec = tunedSpec
			}
			res, out, err := exchange.Run(exchange.Job{Machine: machine, Spec: spec, MsgBytes: *msg, Iters: *iters,
				Recorder: rec, Recovery: d.Policy()})
			d.CheckRun(cell, out, err)
			bw := res.NodeBW
			recorders[i] = rec
			fmt.Printf("%14.2f", bw/1e9)
			series[i].Values = append(series[i].Values, bw/1e9)
			if d.JSON != "" {
				row := analyze.Row{
					Name: a, GPUs: g, NodeBW: bw,
					Compression: analyze.CompressionRows(rec.Metrics().CompressionStats()),
					Faults:      analyze.FaultRowFrom(rec.Metrics()),
					Errors:      analyze.ErrorRows(d.Tel.Tracker(), cell),
				}
				if a == "tuned" && bw > 0 {
					// Seconds per exchange, inverted back out of the
					// bandwidth the harness reports.
					p := machine.Ranks()
					measured := float64(p) * float64(p) * float64(*msg) / (bw * float64(machine.Nodes))
					row.Tuning = tuningRows(tunedCell, measured, rec.Metrics())
				}
				s := analyze.Summarize(analyze.FromRecorder(rec), 0)
				row.Analysis = &s
				artifact.Machine = rec.Machine()
				artifact.Rows = append(artifact.Rows, row)
			}
		}
		fmt.Println()
	}
	// Achieved (not nominal) compression of the compressed algorithms.
	for i, a := range algos {
		stats := recorders[i].Metrics().CompressionStats()
		if len(stats) == 0 {
			continue
		}
		fmt.Printf("# %s achieved compression:", a)
		for _, s := range stats {
			fmt.Printf(" %s %.2fx (error bound %.2e)", s.Label, s.Ratio(), s.ErrorBound)
		}
		fmt.Println()
	}
	d.Finish(artifact)
	if *doPlot {
		fmt.Println()
		fmt.Print(plot.Chart("node bandwidth (GB/s) vs GPUs", labels, series, 60, 14, false))
	}
	d.Close()
}
