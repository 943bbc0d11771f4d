// Package driver registers the flags the measurement commands share —
// each exactly once — and owns the plumbing every command needs around
// them: the simulated machine of -gpus/-parallel/-faults, the recovery
// policy of -recover/-shrink and its console lines, the tune plan of
// -autotune/-tuneplan, the bench artifact's provenance keys, and the
// per-cell recorders whose last one backs the -metrics report and the
// -trace file written at exit.
package driver

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/telemetry"
	recov "repro/internal/recover"
	"repro/internal/tune"
)

// Driver is one command's shared flags and run state. Register the flag
// groups the command takes, then call Parse; the exported flag values
// are valid from then on.
type Driver struct {
	JSON     string
	Parallel bool
	// GPUs holds the parsed -gpus counts; a single-count command's has
	// exactly one entry.
	GPUs []int

	// Telemetry holds the -serve/-eventlog/-slo/-errtrack values, and Tel
	// is the session Parse starts from them (nil when all are off).
	Telemetry *telemetry.Flags
	Tel       *telemetry.Session

	// OnDemand gives a cell a recorder only when -trace, -metrics or
	// telemetry reads it, and then records phase spans for -metrics too,
	// so the report carries the phase breakdown. Otherwise every cell
	// gets a recorder, as the command prints metrics such as achieved
	// compression itself, and spans are recorded for -trace and -json.
	OnDemand bool
	// ServeNote and TraceNote format the status lines printed when
	// telemetry serves (address) and when the -trace file is written
	// (file, cell).
	ServeNote, TraceNote string

	tool                     string
	fs                       *flag.FlagSet
	trace, tunePlan, gpuFlag string
	metrics, recover, shrink bool
	autotune, gpuSingle      bool
	faults                   int64
	tuneTol                  float64
	tuneProbe                int
	plan                     *tune.Plan
	last                     *obs.Recorder
	lastCell                 string
}

// New returns the driver of the named command, with the telemetry flags
// registered on fs (nil selects flag.CommandLine).
func New(tool string, fs *flag.FlagSet) *Driver {
	if fs == nil {
		fs = flag.CommandLine
	}
	return &Driver{
		tool: tool, fs: fs, Telemetry: telemetry.RegisterFlags(fs),
		ServeNote: "# telemetry: serving http://%s\n",
		TraceNote: "# trace written: %s (%s)\n",
	}
}

// ObsFlags registers -trace and -metrics.
func (d *Driver) ObsFlags(traceUsage, metricsUsage string) {
	d.fs.StringVar(&d.trace, "trace", "", traceUsage)
	d.fs.BoolVar(&d.metrics, "metrics", false, metricsUsage)
}

// JSONFlag registers -json, the bench artifact path.
func (d *Driver) JSONFlag() {
	d.fs.StringVar(&d.JSON, "json", "", "write the machine-readable bench artifact to this file")
}

// GPUListFlag registers -gpus as a comma-separated list of GPU counts.
func (d *Driver) GPUListFlag(def, usage string) {
	d.fs.StringVar(&d.gpuFlag, "gpus", def, usage)
}

// GPUCountFlag registers -gpus as a single GPU count.
func (d *Driver) GPUCountFlag(def string) {
	d.GPUListFlag(def, "GPU count (multiple of 6)")
	d.gpuSingle = true
}

// ParallelFlag registers -parallel.
func (d *Driver) ParallelFlag(usage string) {
	d.fs.BoolVar(&d.Parallel, "parallel", false, usage)
}

// FaultFlags registers -faults, -recover and -shrink.
func (d *Driver) FaultFlags() {
	d.fs.Int64Var(&d.faults, "faults", 0, "inject the seeded fault plan netsim.RandomPlan(seed); 0 disables (docs/ROBUSTNESS.md)")
	d.fs.BoolVar(&d.recover, "recover", false, "run under the crash-recovery runtime: epoch checkpoints + rollback/respawn on crash verdicts (docs/ROBUSTNESS.md)")
	d.fs.BoolVar(&d.shrink, "shrink", false, "with -recover: when a rank's respawn budget is exhausted, shrink onto the survivors instead of giving up (docs/ROBUSTNESS.md)")
}

// TuneFlags registers -autotune, -tunetol, -tuneplan and -tuneprobe.
func (d *Driver) TuneFlags(autotuneUsage, tuneTolUsage string) {
	d.fs.BoolVar(&d.autotune, "autotune", false, autotuneUsage)
	d.fs.Float64Var(&d.tuneTol, "tunetol", 1e-3, tuneTolUsage)
	d.fs.StringVar(&d.tunePlan, "tuneplan", "", "tune-plan file: written with -autotune, otherwise loaded and replayed")
	d.fs.IntVar(&d.tuneProbe, "tuneprobe", 2, "probe the best K predicted candidates with short simulation runs (0 = predictor only)")
}

// Parse parses the command line and starts the telemetry session. A
// usage error exits with status 2, any other failure with status 1.
func (d *Driver) Parse() {
	if err := d.parse(os.Args[1:]); err != nil {
		var ue usageError
		if errors.As(err, &ue) {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.tool, err)
			os.Exit(2)
		}
		d.Fail(err)
	}
	// -json artifacts embed the per-stage error-attribution ledger, so
	// the error tracker is on for artifact runs even without -errtrack.
	cfg := d.Telemetry.Config()
	cfg.Tracker = d.JSON != ""
	tel, err := telemetry.Start(cfg)
	if err != nil {
		d.Fail(err)
	}
	d.Tel = tel
	if tel.Enabled() && tel.Addr() != "" {
		fmt.Printf(d.ServeNote, tel.Addr())
	}
}

// usageError marks a flag combination the command rejects.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// parse parses args and validates the shared flags; under -tuneplan
// without -autotune it loads the plan to replay.
func (d *Driver) parse(args []string) error {
	if err := d.fs.Parse(args); err != nil {
		return usageError{err}
	}
	set := map[string]bool{}
	d.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if d.fs.Lookup("gpus") != nil {
		gpus, err := parseGPUs(d.gpuFlag)
		if err != nil {
			return usageError{err}
		}
		if d.gpuSingle && len(gpus) != 1 {
			return usagef("-gpus takes one GPU count, got %q", d.gpuFlag)
		}
		d.GPUs = gpus
	}
	if d.shrink && !d.recover {
		return usagef("-shrink needs -recover")
	}
	if d.autotune {
		d.plan = tune.NewPlan(d.tuneTol)
	} else if d.tunePlan != "" {
		for _, name := range []string{"tunetol", "tuneprobe"} {
			if set[name] {
				return usagef("-%s only applies with -autotune; replaying %s uses the plan's own settings", name, d.tunePlan)
			}
		}
		p, err := tune.Load(d.tunePlan)
		if err != nil {
			return err
		}
		d.plan = p
	}
	return nil
}

// parseGPUs parses a comma-separated list of GPU counts. Every entry
// must be a positive multiple of 6, a whole number of Summit nodes.
func parseGPUs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		g, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad GPU count %q", f)
		}
		if g <= 0 || g%6 != 0 {
			return nil, fmt.Errorf("GPU count %d is not a positive multiple of 6", g)
		}
		out = append(out, g)
	}
	return out, nil
}

// Fail prints err and exits with status 1.
func (d *Driver) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", d.tool, err)
	os.Exit(1)
}

// Machine returns the simulated Summit machine of gpus GPUs with the
// -parallel engine and the -faults plan applied.
func (d *Driver) Machine(gpus int) netsim.Config {
	m := netsim.Summit(gpus / 6)
	m.Parallel = d.Parallel
	if d.faults != 0 {
		m.Faults = netsim.RandomPlan(d.faults)
	}
	return m
}

// Policy returns the -recover policy, or nil to run without recovery.
func (d *Driver) Policy() *recov.Policy {
	if !d.recover {
		return nil
	}
	return &recov.Policy{Seed: d.faults, Shrink: d.shrink}
}

// CheckRun exits when a cell's run failed, and otherwise prints the
// crashes it recovered from and the shrinks it survived to stderr.
func (d *Driver) CheckRun(cell string, out recov.Outcome, err error) {
	if err != nil {
		d.Fail(fmt.Errorf("%s: %w", cell, err))
	}
	if len(out.Recoveries) > 0 {
		fmt.Fprintf(os.Stderr, "# %s: recovered %d crash(es), MTTR %.3gs\n", cell, len(out.Recoveries), out.MTTRSeconds)
	}
	for _, sh := range out.Shrinks {
		fmt.Fprintf(os.Stderr, "# %s: SHRUNK %d->%d ranks (lost %v) at t=%.3gs — degraded topology, not comparable to full-size rows\n",
			cell, sh.FromSize, sh.ToSize, sh.Dead, sh.DetectT)
	}
}

// Tuning reports whether the run has a tuned configuration: computed
// (-autotune) or replayed from a saved plan (-tuneplan).
func (d *Driver) Tuning() bool { return d.plan != nil }

// TunedCell resolves the tuned cell of one machine. Under -autotune,
// compute tunes it (the tuner strips the fault plan itself, so the cell
// is identical with or without -faults) and it joins the plan saved at
// exit; otherwise it is looked up in the replayed plan under shape.
func (d *Driver) TunedCell(machine netsim.Config, shape string, compute func(netsim.Config, tune.Space) (*tune.Cell, error)) *tune.Cell {
	if d.autotune {
		cell, err := compute(machine, tune.Space{Budget: d.tuneTol, ProbeTopK: d.tuneProbe})
		if err != nil {
			d.Fail(err)
		}
		if _, dup := d.plan.Cell(cell.Machine, cell.Shape); !dup {
			d.plan.Cells = append(d.plan.Cells, *cell)
		}
		return cell
	}
	cell, ok := d.plan.Cell(tune.Fingerprint(machine), shape)
	if !ok {
		d.Fail(fmt.Errorf("%s holds no cell for this machine/shape (%d GPUs)", d.tunePlan, machine.Ranks()))
	}
	return cell
}

// DescribeChoice formats one tuned stage for the console summary.
func DescribeChoice(st tune.Choice) string {
	s := st.Algo
	if st.Method != "" {
		s += "/" + st.Method
	}
	if st.Chunks > 0 && st.Algo == string(tune.CompressedOSC) {
		s += fmt.Sprintf("/c%d", st.Chunks)
	}
	return s
}

// Provenance records the shared flags in a bench artifact's config.
func (d *Driver) Provenance(config map[string]string) {
	config["gpus"] = d.gpuFlag
	if d.faults != 0 {
		config["faults"] = fmt.Sprint(d.faults)
	}
	if d.recover {
		config["recover"] = "1"
	}
	if d.shrink {
		// Shrink provenance: rows of this artifact may have finished on a
		// degraded (smaller) topology; benchdiff refuses to compare such
		// rows against full-size baselines.
		config["shrink"] = "1"
	}
	if d.Tuning() {
		config["tunetol"] = fmt.Sprint(d.plan.Budget)
		if d.autotune {
			config["autotune"] = "1"
		}
	}
}

// Recorder starts one measured cell: it opens telemetry run run, and
// returns a fresh recorder that becomes the last cell, named name in
// the -metrics report and the -trace line (nil under OnDemand when
// nothing reads it). The -json artifact embeds trace analyses, so it
// records spans like -trace does.
func (d *Driver) Recorder(run, name string) *obs.Recorder {
	asked := d.trace != "" || d.metrics
	if d.OnDemand && !asked && !d.Tel.Enabled() {
		return nil
	}
	spans := d.trace != "" || d.JSON != "" || d.OnDemand && asked
	rec := obs.New(obs.Options{Trace: spans, Metrics: true})
	d.Tel.StartRun(run)
	d.Tel.Attach(rec)
	d.last, d.lastCell = rec, name
	return rec
}

// Finish writes the outputs of the run: the last cell's -metrics report
// and -trace file, the -json artifact, and the -autotune plan to
// -tuneplan.
func (d *Driver) Finish(artifact *analyze.Artifact) {
	if d.metrics && d.last != nil {
		if d.lastCell == "" {
			fmt.Println()
		} else {
			fmt.Printf("\n# metrics report — %s\n", d.lastCell)
		}
		d.last.WriteReport(os.Stdout)
	}
	if d.trace != "" && d.last != nil {
		f, err := os.Create(d.trace)
		if err != nil {
			d.Fail(err)
		}
		if err := d.last.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			d.Fail(err)
		}
		fmt.Printf(d.TraceNote, d.trace, d.lastCell)
	}
	if d.JSON != "" {
		if err := artifact.WriteFile(d.JSON); err != nil {
			d.Fail(err)
		}
		fmt.Printf("# bench artifact written: %s (%d rows)\n", d.JSON, len(artifact.Rows))
	}
	if d.autotune && d.tunePlan != "" {
		if err := d.plan.Save(d.tunePlan); err != nil {
			d.Fail(err)
		}
		fmt.Printf("# tune plan written: %s (%d cells)\n", d.tunePlan, len(d.plan.Cells))
	}
}

// Close prints the telemetry summary and closes the session.
func (d *Driver) Close() {
	if d.Tel.Enabled() {
		fmt.Println(d.Tel.Summary())
		if err := d.Tel.Close(); err != nil {
			d.Fail(fmt.Errorf("telemetry: %w", err))
		}
	}
}
