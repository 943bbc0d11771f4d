package driver

import (
	"errors"
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/tune"
)

// newDriver registers every shared flag group, as fftbench does, on a
// private flag set.
func newDriver(single bool) *Driver {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := New("test", fs)
	if single {
		d.GPUCountFlag("24")
	} else {
		d.GPUListFlag("12,24", "GPU counts")
	}
	d.ObsFlags("trace", "metrics")
	d.JSONFlag()
	d.FaultFlags()
	d.ParallelFlag("parallel")
	d.TuneFlags("autotune", "tunetol")
	return d
}

func isUsage(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

func TestParseGPUs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"12", []int{12}},
		{"12,24,48", []int{12, 24, 48}},
		{" 6 , 1536", []int{6, 1536}},
		{"12,abc,13", nil},
		{"12,13", nil},
		{"abc", nil},
		{"", nil},
		{"12,", nil},
		{"0", nil},
		{"-6", nil},
	} {
		got, err := parseGPUs(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseGPUs(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseGPUs(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestGPUFlagUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		single bool
		args   []string
		want   []int // nil: usage error
	}{
		{false, nil, []int{12, 24}},
		{false, []string{"-gpus", "12,24,48"}, []int{12, 24, 48}},
		{false, []string{"-gpus", "12,abc,13"}, nil},
		{false, []string{"-gpus", "12,13"}, nil},
		{true, nil, []int{24}},
		{true, []string{"-gpus", "96"}, []int{96}},
		{true, []string{"-gpus", "12,24"}, nil},
		{true, []string{"-gpus", "13"}, nil},
	} {
		d := newDriver(tc.single)
		err := d.parse(tc.args)
		if tc.want == nil {
			if !isUsage(err) {
				t.Errorf("single=%v %v: err = %v, want a usage error", tc.single, tc.args, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(d.GPUs, tc.want) {
			t.Errorf("single=%v %v: GPUs %v, err %v; want %v", tc.single, tc.args, d.GPUs, err, tc.want)
		}
	}
}

func TestShrinkNeedsRecover(t *testing.T) {
	if err := newDriver(false).parse([]string{"-shrink"}); !isUsage(err) {
		t.Errorf("-shrink alone: err = %v, want a usage error", err)
	}
	d := newDriver(false)
	if err := d.parse([]string{"-recover", "-shrink", "-faults", "7"}); err != nil {
		t.Fatalf("-recover -shrink: %v", err)
	}
	if p := d.Policy(); p == nil || !p.Shrink || p.Seed != 7 {
		t.Errorf("policy = %+v, want Shrink with seed 7", p)
	}
}

// TestReplayProvenance replays a plan tuned under a non-default budget:
// the artifact must record the plan's budget, and the tuner flags that
// a replay ignores are usage errors.
func TestReplayProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := tune.NewPlan(1e-6).Save(path); err != nil {
		t.Fatal(err)
	}
	d := newDriver(false)
	if err := d.parse([]string{"-tuneplan", path}); err != nil {
		t.Fatal(err)
	}
	cfg := map[string]string{}
	d.Provenance(cfg)
	want := map[string]string{"gpus": "12,24", "tunetol": "1e-06"}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("replay provenance = %v, want %v", cfg, want)
	}

	for _, flagArgs := range [][]string{{"-tunetol", "1e-6"}, {"-tuneprobe", "3"}} {
		args := append([]string{"-tuneplan", path}, flagArgs...)
		if err := newDriver(false).parse(args); !isUsage(err) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}

	d = newDriver(false)
	if err := d.parse([]string{"-autotune", "-tunetol", "1e-6", "-tuneprobe", "3", "-tuneplan", path}); err != nil {
		t.Fatal(err)
	}
	cfg = map[string]string{}
	d.Provenance(cfg)
	if cfg["tunetol"] != "1e-06" || cfg["autotune"] != "1" {
		t.Errorf("autotune provenance = %v", cfg)
	}
}
