// Command perfbench is the repository's two-clock benchmark. It runs
// one workload — a fixed Fig. 3, Fig. 4 or Table II cell — from a single
// process on the default sequential engine and reports the host cost of
// simulating it (set-up and run seconds, peak memory) next to the
// reproduced virtual-clock results, checking every config's output.
//
//	perfbench -workload fig4-768 -seed 1 -seconds 60 -trace 0
//
// With -trace 1 it instead makes a traced pass between two untraced
// ones and reports the per-layer metrics, writing the spans and a CPU
// profile under -outdir. The last stdout line is the JSON result; README.md
// lists every metric and the end-to-end metric each layer moves.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"

	"repro/internal/obs"
)

// minReps is the fewest repetitions a run makes, so that every host
// metric is a median and every config meets the held-out seed.
const minReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig4-768, fig3-384 or roundtrip-128")
	seed := fs.Uint64("seed", 1, "field seed; the held-out seed is derived from it")
	seconds := fs.Float64("seconds", 60, "host seconds to keep repeating the workload")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass instead")
	outdir := fs.String("outdir", ".bench_build/perfbench", "directory for the traced pass's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or trace %d\n", *name, *trace)
		return 2
	}
	var res result
	if *trace == 1 {
		var err error
		if res, err = traced(w, *seed, *outdir, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else {
		res = measure(w, *seed, *seconds, stdout)
	}
	fmt.Fprintln(stdout, res.line())
	return 0
}

// heldOut derives the second field seed every run also measures: the
// virtual clock must not depend on the data.
func heldOut(seed uint64) uint64 { return seed ^ 0x9e3779b97f4a7c15 }

// tally runs a workload's cells and keeps their checks: output error,
// and determinism of the virtual clock and counters across repetitions
// and seeds. A failed check fails its config, never the whole run.
type tally struct {
	w       workload
	seeds   [2]uint64
	refs    map[uint64][]complex128
	first   map[string]virt
	errBits map[string]uint64
	fails   map[string]string
}

func newTally(w workload, seed uint64) *tally {
	return &tally{
		w:       w,
		seeds:   [2]uint64{seed, heldOut(seed)},
		refs:    map[uint64][]complex128{},
		first:   map[string]virt{},
		errBits: map[string]uint64{},
		fails:   map[string]string{},
	}
}

// run measures one config on the field of seed, after a collection so
// that earlier cells' garbage is not swept inside this one.
func (t *tally) run(cf config, seed uint64, rec *obs.Recorder) cell {
	var ref []complex128
	if t.w.fft() && !t.w.roundTrip {
		if ref = t.refs[seed]; ref == nil {
			ref = referenceSpectrum(t.w.grid(), seed)
			t.refs[seed] = ref
		}
	}
	runtime.GC()
	return runCell(t.w, cf, seed, rec, ref)
}

// check records the failures of one cell.
func (t *tally) check(cf config, seed uint64, c cell) {
	if msg := checkCell(t.w, c); msg != "" {
		t.fail(cf.name, msg)
	}
	if v, ok := t.first[cf.name]; !ok {
		t.first[cf.name] = c.v
	} else if v != c.v {
		t.fail(cf.name, "virtual clock or netsim counters differ between repetitions or seeds")
	}
	key := fmt.Sprintf("%s/%d", cf.name, seed)
	bits := math.Float64bits(c.err)
	if b, ok := t.errBits[key]; ok && b != bits {
		t.fail(cf.name, "output error differs between repetitions of one seed")
	}
	t.errBits[key] = bits
}

func (t *tally) fail(config, msg string) {
	if _, ok := t.fails[config]; !ok {
		t.fails[config] = msg
	}
}

// measure repeats the workload, alternating the seed and the held-out
// seed, at least minReps times and then while another repetition as
// long as the last still fits in the given host seconds, and reports
// the end-to-end metrics. setup_s and run_s sum, over the configs, the
// median of each config's set-up spans and of its timed iterations over
// the whole run; peak_rss_mb is the median of the repetitions' peaks.
func measure(w workload, seed uint64, seconds float64, out io.Writer) result {
	t := newTally(w, seed)
	var peaks []float64
	cells := map[string][]cell{}
	start := now()
	var last float64
	for rep := 0; rep < minReps || (now()-start).Seconds()+last <= seconds; rep++ {
		repStart := now()
		resetPeakRSS()
		s := t.seeds[rep%2]
		var su, ru float64
		for _, cf := range w.configs {
			c := t.run(cf, s, nil)
			t.check(cf, s, c)
			su += c.setup.secs()
			ru += median(c.samples())
			cells[cf.name] = append(cells[cf.name], c)
		}
		peaks = append(peaks, peakRSSMB())
		last = (now() - repStart).Seconds()
		fmt.Fprintf(out, "rep %d seed %d: setup_s %.4f run_s %.4f peak_rss_mb %.1f wall_s %.1f\n",
			rep, s, su, ru, peaks[rep], last)
	}
	printCells(out, w, t, cells, seed)
	vals := map[string]float64{"peak_rss_mb": median(peaks)}
	for _, cf := range w.configs {
		su, ru := hostMedians(cells[cf.name])
		vals["setup_s"] += su
		vals["run_s"] += ru
	}
	fmt.Fprintf(out, "%d repetitions; setup_s %.4f  run_s %.4f  peak_rss_mb %.1f\n",
		len(peaks), vals["setup_s"], vals["run_s"], vals["peak_rss_mb"])
	return newResult(endToEnd, vals, len(w.configs), len(t.fails))
}

// hostMedians returns the median set-up span of one config's cells and
// the median of all their timed iterations.
func hostMedians(cs []cell) (setup, run float64) {
	var su, ru []float64
	for _, c := range cs {
		su = append(su, c.setup.secs())
		ru = append(ru, c.samples()...)
	}
	return median(su), median(ru)
}

// printCells prints one row per config — host medians, the virtual
// result and the output check — then the reproduced results by metric
// name.
func printCells(out io.Writer, w workload, t *tally, cells map[string][]cell, seed uint64) {
	fmt.Fprintf(out, "workload %s on %d GPUs, seed %d, held-out seed %d\n",
		w.name, 6*w.nodes, seed, heldOut(seed))
	fmt.Fprintf(out, "%-10s %9s %9s %12s %12s %10s %10s  %s\n",
		"config", "setup_s", "run_s", "virtual_ms", "rate", "error", "budget", "check")
	for _, cf := range w.configs {
		cs := cells[cf.name]
		su, ru := hostMedians(cs)
		c := cs[0]
		check := "ok"
		if msg, bad := t.fails[cf.name]; bad {
			check = "FAIL: " + msg
		}
		errCol, budgetCol := fmt.Sprintf("%.3g", c.err), fmt.Sprintf("%.3g", c.budget)
		if !w.fft() {
			errCol, budgetCol = fmt.Sprint(c.delivered), "bytes"
		}
		fmt.Fprintf(out, "%-10s %9.4f %9.4f %12.6f %12.4f %10s %10s  %s\n",
			cf.name, su, ru, 1e3*(c.v.Forward+c.v.Backward),
			c.v.Rate, errCol, budgetCol, check)
	}
	for _, l := range virtualLines(w, cells) {
		fmt.Fprintln(out, l)
	}
}

// virtualLines names the workload's reproduced results (deterministic;
// checked, not timed): Gflop/s per FFT config, node GB/s per all-to-all
// algorithm, and the error of every FFT config.
func virtualLines(w workload, cells map[string][]cell) []string {
	var ls []string
	errName := "spectrum_err"
	if w.roundTrip {
		errName = "rel_err"
	}
	for _, cf := range w.configs {
		c := cells[cf.name][0]
		if w.fft() {
			ls = append(ls, fmt.Sprintf("gflops.%s %.6g Gflop/s (virtual)", cf.name, c.v.Rate))
		} else {
			ls = append(ls, fmt.Sprintf("node_gbps.%s %.6g GB/s (virtual)", cf.name, c.v.Rate))
		}
	}
	if w.fft() {
		for _, cf := range w.configs {
			ls = append(ls, fmt.Sprintf("%s.%s %.6g 1 (relative L2)", errName, cf.name, cells[cf.name][0].err))
		}
	}
	sort.Strings(ls)
	return ls
}

// resetPeakRSS starts a new peak-resident-set window where Linux
// allows it, so that each repetition's peak is its own. Elsewhere the
// peak stays the whole process's.
func resetPeakRSS() {
	// An error leaves the process-wide peak, which is still a peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set in MB since the last reset (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
