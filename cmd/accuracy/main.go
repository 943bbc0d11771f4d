// Command accuracy regenerates the paper's accuracy results:
//
//   - Table II (-table2): the relative FFT round-trip error
//     ‖x − IFFT(FFT(x))‖/‖x‖ for FP64, FP32, and the mixed-precision
//     FP64→FP32 compressed exchange, across GPU counts.
//   - Fig. 2 (-fig2): the error as the communication mantissa is trimmed
//     bit by bit, together with the theoretical acceleration 64/bits,
//     plus the FP64, FP32, and MP 64/32 reference lines.
//
// Usage:
//
//	go run ./cmd/accuracy -table2 [-n 64] [-gpus 12,24,...]
//	go run ./cmd/accuracy -fig2 [-n 32] [-gpus 12]
//	                      [-trace out.json] [-metrics]
//
// -trace writes a Chrome-trace JSON of the last measured cell (analyze
// it with cmd/tracetool); -metrics prints its phase-breakdown report.
package main

import (
	"flag"
	"fmt"

	"repro/cmd/internal/driver"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/netsim"
)

// d holds the shared flags and the per-cell recorders.
var d = driver.New("accuracy", nil)

// measure runs one round-trip accuracy cell (no timed iterations).
func measure[C fft.Complex](cell string, cfg netsim.Config, n [3]int, opts core.Options) core.Result {
	res, _, _ := core.Run[C](core.Job{Machine: cfg, N: n, Options: opts, WantErr: true,
		Recorder: d.Recorder(cell, cell)})
	return res
}

func main() {
	table2 := flag.Bool("table2", false, "reproduce Table II")
	fig2 := flag.Bool("fig2", false, "reproduce Fig. 2")
	nFlag := flag.Int("n", 64, "cubic problem size per dimension")
	d.GPUListFlag("12,24,48,96,192,384,768,1536", "GPU counts for -table2 (multiples of 6)")
	fig2GPUs := flag.Int("fig2gpus", 12, "GPU count for the -fig2 sweep")
	d.ObsFlags("write a Chrome-trace JSON of the last measured cell to this file",
		"print the metrics report of the last measured cell")
	d.OnDemand = true
	d.Parse()

	if !*table2 && !*fig2 {
		*table2, *fig2 = true, true
	}
	n := [3]int{*nFlag, *nFlag, *nFlag}
	if *table2 {
		runTable2(n, d.GPUs)
	}
	if *fig2 {
		runFig2(n, *fig2GPUs)
	}
	d.Finish(nil)
	d.Close()
}

func runTable2(n [3]int, gpus []int) {
	fmt.Printf("# Table II — relative FFT error ‖x − IFFT(FFT(x))‖/‖x‖, %d^3 problem\n", n[0])
	fmt.Printf("%8s%14s%14s%14s\n", "GPUs", "FP64", "FP32", "FP64->FP32")
	for _, g := range gpus {
		e64, e32, eMP := references(n, g)
		fmt.Printf("%8d%14.2e%14.2e%14.2e\n", g, e64, e32, eMP)
	}
}

// references measures the FP64, FP32 and FP64→FP32 round-trip errors.
func references(n [3]int, g int) (e64, e32, eMP float64) {
	cfg := d.Machine(g)
	e64 = measure[complex128](fmt.Sprintf("fp64 @ %d GPUs", g), cfg, n,
		core.Options{Backend: core.BackendAlltoallv}).RelErr
	e32 = measure[complex64](fmt.Sprintf("fp32 @ %d GPUs", g), cfg, n,
		core.Options{Backend: core.BackendAlltoallv}).RelErr
	eMP = measure[complex128](fmt.Sprintf("fp64-32 @ %d GPUs", g), cfg, n,
		core.Options{Backend: core.BackendCompressed, Method: compress.Cast32{}}).RelErr
	return e64, e32, eMP
}

func runFig2(n [3]int, gpus int) {
	if gpus%6 != 0 {
		d.Fail(fmt.Errorf("-fig2gpus must be a multiple of 6"))
	}
	cfg := d.Machine(gpus)
	fmt.Printf("\n# Fig. 2 — accuracy vs bits in the communicated values, %d^3 problem, %d GPUs\n", n[0], gpus)
	fmt.Printf("# (bits = 1 sign + 11 exponent + M mantissa; theoretical speedup = 64/bits)\n")
	fmt.Printf("%8s%10s%14s%14s\n", "bits", "mantissa", "rel.err", "speedup")
	for m := 52; m >= 4; m -= 4 {
		method := compress.Trim{M: uint(m)}
		r := measure[complex128](fmt.Sprintf("trim-%d @ %d GPUs", m, gpus), cfg, n,
			core.Options{Backend: core.BackendCompressed, Method: method})
		fmt.Printf("%8d%10d%14.2e%14.2f\n", method.BitsPerValue(), m, r.RelErr, 64/float64(method.BitsPerValue()))
	}
	e64, e32, eMP := references(n, gpus)
	fmt.Printf("# references: FP64 %.2e | FP32 (full pipeline) %.2e | MP 64/32 %.2e\n", e64, e32, eMP)
}
