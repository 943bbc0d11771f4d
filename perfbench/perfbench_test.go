package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/netsim"
)

// small is a 12-GPU 32³ forward cell, cheap enough for tests.
var small = workload{
	name: "small", nodes: 2, n: 32, simScale: 1, timed: 2,
	configs: []config{{name: "fp64", opts: core.Options{Backend: core.BackendAlltoallv}}},
}

func relDist(a, b []complex128) float64 {
	e, n := l2Diff(a, b)
	return math.Sqrt(e / n)
}

func TestReferenceMatchesForward3D(t *testing.T) {
	n := small.grid()
	ref := referenceSpectrum(n, 7)
	x := make([]complex128, len(ref))
	for k := 0; k < n[2]; k++ {
		for j := 0; j < n[1]; j++ {
			for i := 0; i < n[0]; i++ {
				x[i+n[0]*(j+n[1]*k)] = core.FieldValue(7, i, j, k)
			}
		}
	}
	fft.Forward3D(x, n[0], n[1], n[2])
	if d := relDist(ref, x); d > roundOff(n) {
		t.Fatalf("reference differs from fft.Forward3D by %g", d)
	}
}

// near reports whether a benchmark cell's virtual rate is within 5% of
// the published harness's. The cells put a barrier after construction so
// that set-up ends cleanly on the host clock; the harnesses do not, which
// shifts rank skew and so the virtual rate a little.
func near(got, want float64) bool { return math.Abs(got/want-1) < 0.05 }

func TestReferenceAgainstMeasure(t *testing.T) {
	n := small.grid()
	cf := small.configs[0]
	c := runFFT(small, cf, 1, nil, referenceSpectrum(n, 1))
	if msg := checkCell(small, c); msg != "" {
		t.Fatalf("distributed spectrum fails the serial reference: %s", msg)
	}
	if c.err > roundOff(n) {
		t.Fatalf("spectrum error %g above FP64 round-off %g", c.err, roundOff(n))
	}
	want := core.Measure[complex128](netsim.Summit(small.nodes), n, cf.opts, 1, true)
	if !near(c.v.Rate, want.Gflops) {
		t.Errorf("benchmark cell reads %v Gflop/s, core.Measure %v", c.v.Rate, want.Gflops)
	}
	// core.Measure's round trip runs on the seed-1 field too.
	rt := small
	rt.roundTrip = true
	r := runFFT(rt, cf, 1, nil, nil)
	if math.Abs(r.err-want.RelErr) > 1e-9*want.RelErr || r.err > 2*roundOff(n) {
		t.Errorf("round-trip error %g, core.Measure %g, budget %g", r.err, want.RelErr, 2*roundOff(n))
	}
}

func TestA2AAgainstNodeBandwidth(t *testing.T) {
	w := workload{name: "a2a", nodes: 2, msgBytes: 4096, timed: 2}
	for _, algo := range []string{exchange.AlgoLinear, exchange.AlgoOSC} {
		c := runA2A(w, config{name: algo, algo: algo}, nil)
		if msg := checkCell(w, c); msg != "" {
			t.Fatalf("%s: %s", algo, msg)
		}
		if len(c.forward) != w.timed {
			t.Fatalf("%s: %d timed spans, want %d", algo, len(c.forward), w.timed)
		}
		for i, iv := range c.forward {
			if iv.lo > iv.hi || (i > 0 && iv.lo < c.forward[i-1].hi) {
				t.Errorf("%s: timed span %d %v overlaps or ends before it starts", algo, i, iv)
			}
		}
		want := exchange.NodeBandwidth(netsim.Summit(w.nodes), algo, w.msgBytes, 1) / 1e9
		if !near(c.v.Rate, want) {
			t.Errorf("%s: benchmark cell reads %v GB/s, exchange.NodeBandwidth %v", algo, c.v.Rate, want)
		}
	}
}

func TestErrorBudget(t *testing.T) {
	n := [3]int{128, 128, 128}
	if got := errorBudget(core.Options{}, true, n); got != 2*roundOff(n) {
		t.Errorf("fp64 round-trip budget %g, want two transforms of round-off", got)
	}
	if got := errorBudget(core.Options{Backend: core.BackendCompressed, Tolerance: 1e-4}, true, n); got != 1e-4 {
		t.Errorf("etol-1e-4 budget %g, want the tolerance", got)
	}
	// Four FP16 forward stages: (1+4.9e-4)^4 − 1 plus round-off.
	got := errorBudget(workloads[0].configs[1].opts, false, n)
	if want := math.Pow(1+4.9e-4, 4) - 1; got < want || got > want+1e-12 {
		t.Errorf("fp64-16 forward budget %g, want %g", got, want)
	}
}

func sp(id, parent int, start, end float64) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(0, -1, 0, 10),
		sp(1, 0, 1, 3),  // child
		sp(2, 0, 2, 5),  // overlaps child 1: union [1,5]
		sp(3, 0, 8, 12), // runs past the parent: counts [8,10]
		sp(4, 1, 1, 2),  // grandchild: only its parent's self time shrinks
		sp(5, -1, 20, 21),
	}
	want := []float64{10 - 4 - 2, 2 - 1, 3, 4, 1, 1}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("span %d self time %g, want %g", i, got[i], want[i])
		}
	}
}

// The names and units the benchmark's JSON result may carry: a name
// starts with a letter or digit and holds at most 64 letters, digits,
// '_', '.' and '-'.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }

func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestMetricNames(t *testing.T) {
	var names []string
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer()...) {
		if !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		names = append(names, m.Name)
	}
	for _, w := range append(workloads, extraWorkloads...) {
		names = append(names, w.name)
		for _, cf := range w.configs {
			names = append(names, "gflops."+cf.name, "node_gbps."+cf.name, "rel_err."+cf.name)
		}
	}
	for _, n := range names {
		if !validName(n) {
			t.Errorf("invalid name %q", n)
		}
	}
	for _, bad := range []string{"", "-lead", "has space", "x/y", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
