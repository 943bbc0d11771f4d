// Command heffte is the general driver of the distributed approximate
// 3-D FFT: it runs one forward (and optionally inverse) transform on the
// simulated machine with a chosen backend/compression and reports time,
// Gflop/s, accuracy, and traffic.
//
// Usage:
//
//	go run ./cmd/heffte [-n 64] [-gpus 24] [-backend osc+compression]
//	                    [-method fp32|fp16|bf16|trim:M|block:B|lossless|none]
//	                    [-etol 1e-6] [-sim 1] [-iters 2]
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/cmd/internal/driver"
	"repro/internal/compress"
	"repro/internal/core"
)

func parseMethod(s string) (compress.Method, error) {
	switch {
	case s == "" || s == "none":
		return compress.None{}, nil
	case s == "fp32":
		return compress.Cast32{}, nil
	case s == "fp16":
		return compress.Cast16{}, nil
	case s == "sfp16":
		return compress.Scaled{Inner: compress.Cast16{}}, nil
	case s == "bf16":
		return compress.CastBF16{}, nil
	case s == "lossless":
		return compress.Lossless{}, nil
	case strings.HasPrefix(s, "trim:"):
		m, err := strconv.Atoi(s[len("trim:"):])
		if err != nil || m < 0 || m > 52 {
			return nil, fmt.Errorf("bad trim width %q", s)
		}
		return compress.Trim{M: uint(m)}, nil
	case strings.HasPrefix(s, "block:"):
		b, err := strconv.Atoi(s[len("block:"):])
		if err != nil || b < 1 || b > 30 {
			return nil, fmt.Errorf("bad block budget %q", s)
		}
		return compress.Block{Bits: uint(b)}, nil
	}
	return nil, fmt.Errorf("unknown method %q", s)
}

func main() {
	nFlag := flag.Int("n", 64, "cubic problem size per dimension")
	backend := flag.String("backend", "osc+compression", "alltoallv | osc | osc+compression")
	methodFlag := flag.String("method", "fp32", "compression method (compressed backend)")
	etol := flag.Float64("etol", 0, "error tolerance e_tol (overrides -method when > 0)")
	simFlag := flag.Int("sim", 0, "simulated problem size per dimension (0 = same as -n)")
	iters := flag.Int("iters", 2, "measured iterations")
	fp32 := flag.Bool("fp32", false, "run the full FP32 pipeline instead of FP64")
	d := driver.New("heffte", nil)
	d.GPUCountFlag("24")
	d.ObsFlags("write a Chrome-trace JSON of the run to this file", "print the phase-breakdown/metrics report")
	d.ParallelFlag("run the simulator's parallel engine (bit-identical results; docs/DETERMINISM.md)")
	d.ServeNote = "telemetry      : serving http://%s\n"
	d.TraceNote = "trace written  : %[1]s (chrome://tracing / ui.perfetto.dev)\n"
	d.Parse()

	gpus := d.GPUs[0]
	n := [3]int{*nFlag, *nFlag, *nFlag}
	opts := core.Options{}
	switch *backend {
	case "alltoallv":
		opts.Backend = core.BackendAlltoallv
	case "osc":
		opts.Backend = core.BackendOSC
	case "osc+compression":
		opts.Backend = core.BackendCompressed
	default:
		d.Fail(fmt.Errorf("unknown backend %q", *backend))
	}
	if opts.Backend == core.BackendCompressed {
		if *etol > 0 {
			opts.Tolerance = *etol
		} else {
			m, err := parseMethod(*methodFlag)
			if err != nil {
				d.Fail(err)
			}
			opts.Method = m
		}
	}
	if *simFlag > 0 {
		if *simFlag%*nFlag != 0 {
			d.Fail(fmt.Errorf("-sim must be a multiple of -n"))
		}
		opts.SimScale = *simFlag / *nFlag
	}

	rec := d.Recorder(fmt.Sprintf("%s/%dgpus", *backend, gpus), "")
	job := core.Job{Machine: d.Machine(gpus), N: n, Options: opts, Iters: *iters, WantErr: true, Recorder: rec}
	var r core.Result
	if *fp32 {
		if opts.Backend == core.BackendCompressed {
			d.Fail(fmt.Errorf("the compressed backend requires the FP64 pipeline"))
		}
		r, _, _ = core.Run[complex64](job)
	} else {
		r, _, _ = core.Run[complex128](job)
	}

	simN := *nFlag
	if opts.SimScale > 1 {
		simN = *nFlag * opts.SimScale
	}
	fmt.Printf("problem        : %d^3 (timed as %d^3)\n", *nFlag, simN)
	fmt.Printf("GPUs           : %d (%d nodes)\n", gpus, gpus/6)
	fmt.Printf("backend        : %s\n", *backend)
	if opts.Backend == core.BackendCompressed {
		m := opts.Method
		if m == nil {
			m = compress.FromTolerance(opts.Tolerance)
		}
		fmt.Printf("compression    : %s (nominal rate %.2fx)\n", m.Name(), m.Ratio())
		// The achieved rate comes from the run's metrics: raw vs wire
		// bytes per labelled reshape (fwd0..3 in ring order).
		if stats := rec.Metrics().CompressionStats(); len(stats) > 0 {
			var raw, wire int64
			fmt.Printf("achieved rate  :")
			for _, s := range stats {
				fmt.Printf(" %s %.2fx", s.Label, s.Ratio())
				raw += s.RawBytes
				wire += s.WireBytes
			}
			if wire > 0 {
				fmt.Printf(" | overall %.2fx", float64(raw)/float64(wire))
			}
			fmt.Println()
		}
	}
	fmt.Printf("forward time   : %.3f ms\n", r.ForwardTime*1e3)
	fmt.Printf("performance    : %.1f Gflop/s\n", r.Gflops)
	fmt.Printf("relative error : %.3e\n", r.RelErr)
	fmt.Printf("traffic        : %d msgs, %.1f MB inter-node, %.1f MB intra-node\n",
		r.Stats.Messages, float64(r.Stats.BytesInter)/1e6, float64(r.Stats.BytesIntra)/1e6)
	fmt.Printf("one-sided      : %d puts (%.1f MB), %d fences, %d flushes\n",
		r.Stats.Puts, float64(r.Stats.BytesPut)/1e6, r.Stats.Fences, r.Stats.Flushes)
	pr := r.Profile
	if pr.Total() > 0 {
		fmt.Printf("phase breakdown: exchange %.0f%%, fft %.0f%%, pack %.0f%%, unpack %.0f%%\n",
			100*pr.Exchange/pr.Total(), 100*pr.FFT/pr.Total(),
			100*pr.Pack/pr.Total(), 100*pr.Unpack/pr.Total())
	}
	d.Finish(nil)
	d.Close()
}
