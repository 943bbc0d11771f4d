package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metric names one reported number; Better is "lower" or "higher".
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the host-clock metrics every workload reports with
// tracing off. Each sums its workload's configs; the times are medians
// over the repetitions of one run.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// Config names and compression methods the per-layer metrics are keyed
// by. A workload reports 0 for a config or method it does not run.
var (
	fftConfigs   = []string{"fp64", "fp64-16", "fp64-32", "etol-1e-4"}
	lossyConfigs = []string{"fp64-16", "fp64-32", "etol-1e-4"}
	methodNames  = []string{"cast32", "cast16", "trim13"}
	a2aAlgos     = []string{"linear", "osc"}
)

// vunit marks virtual-clock seconds: simulated time, deterministic by
// construction, as opposed to host seconds.
const vunit = "s_virtual"

// perLayer lists the metrics of the traced run, in report order.
func perLayer() []metric {
	var ms []metric
	add := func(name, unit, better string) { ms = append(ms, metric{name, unit, better}) }
	for _, c := range fftConfigs {
		add("core.plan_host_s."+c, "s", "lower")
		add("core.forward_host_s."+c, "s", "lower")
		add("core.backward_host_s."+c, "s", "lower")
		for _, ph := range []string{"pack", "exchange", "unpack", "fft"} {
			add("core.vt_"+ph+"_s."+c, vunit, "lower")
		}
	}
	add("grid.plan_host_s", "s", "lower")
	add("grid.transfers", "count", "lower")
	add("grid.pack_gbps", "GB/s", "higher")
	add("grid.unpack_gbps", "GB/s", "higher")
	add("fft.host_gflops", "Gflop/s", "higher")
	for _, m := range methodNames {
		add("compress."+m+".encode_gbps", "GB/s", "higher")
		add("compress."+m+".decode_gbps", "GB/s", "higher")
		add("compress."+m+".ratio", "ratio", "higher")
	}
	for _, c := range lossyConfigs {
		add("compress.vt_compress_s."+c, vunit, "lower")
		add("compress.vt_decompress_s."+c, vunit, "lower")
		add("compress.vt_compress_wait_s."+c, vunit, "lower")
	}
	for _, a := range a2aAlgos {
		add("exchange."+a+".host_s", "s", "lower")
	}
	add("exchange.construct_host_s", "s", "lower")
	add("exchange.vt_fence_s", vunit, "lower")
	add("exchange.vt_flush_s", vunit, "lower")
	add("mpi.barrier_host_us", "us", "lower")
	add("netsim.messages", "count", "lower")
	add("netsim.bytes_inter", "B", "lower")
	add("netsim.bytes_intra", "B", "lower")
	add("netsim.puts", "count", "lower")
	add("netsim.fences", "count", "lower")
	add("netsim.flushes", "count", "lower")
	add("netsim.host_us_per_msg", "us", "lower")
	add("go.alloc_mb", "MB", "lower")
	add("go.gc_cycles", "count", "lower")
	add("obs.trace_overhead", "ratio", "lower")
	return ms
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult fills the metrics of list from vals. A missing or
// non-finite value cannot be reported, so it marks the result
// incorrect and is written as 0.
func newResult(list []metric, vals map[string]float64, attempted, failed int) result {
	r := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.Correct = false
			v = 0
		}
		r.Metrics[m.Name] = value{v, m.Unit}
	}
	return r
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // unreachable: every value is finite
	}
	return string(b)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}
