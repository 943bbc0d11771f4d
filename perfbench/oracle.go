package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/grid"
)

// referenceSpectrum is the serial forward 3-D FFT of core.FieldValue on
// an n grid, stored in natural order (axis 0 fastest), built from
// one-dimensional fft plans along the three axes.
func referenceSpectrum(n [3]int, seed uint64) []complex128 {
	n0, n1, n2 := n[0], n[1], n[2]
	x := make([]complex128, n0*n1*n2)
	for k := 0; k < n2; k++ {
		for j := 0; j < n1; j++ {
			for i := 0; i < n0; i++ {
				x[i+n0*(j+n1*k)] = core.FieldValue(seed, i, j, k)
			}
		}
	}
	fft.NewPlan[complex128](n0).BatchStrided(x, n1*n2, 1, n0, fft.Forward)
	p1 := fft.NewPlan[complex128](n1)
	for k := 0; k < n2; k++ {
		p1.BatchStrided(x[k*n0*n1:], n0, n0, 1, fft.Forward)
	}
	fft.NewPlan[complex128](n2).BatchStrided(x, n0*n1, n0*n1, 1, fft.Forward)
	return x
}

// spectrumDiff returns the squared L2 distance of one rank's share of a
// distributed spectrum (box b in layout o) from the reference, and the
// reference's squared norm over the same points.
func spectrumDiff(got []complex128, b grid.Box, o grid.Order, ref []complex128, n [3]int) (errSq, normSq float64) {
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				want := ref[i+n[0]*(j+n[1]*k)]
				d := got[o.Index(b, [3]int{i, j, k})] - want
				errSq += real(d)*real(d) + imag(d)*imag(d)
				normSq += real(want)*real(want) + imag(want)*imag(want)
			}
		}
	}
	return errSq, normSq
}

// l2Diff returns ‖got − want‖² and ‖want‖².
func l2Diff(got, want []complex128) (errSq, normSq float64) {
	for i, w := range want {
		d := got[i] - w
		errSq += real(d)*real(d) + imag(d)*imag(d)
		normSq += real(w)*real(w) + imag(w)*imag(w)
	}
	return errSq, normSq
}

// relNorm sums per-rank squared norms in rank order and returns the
// global relative L2 error.
func relNorm(errSq, normSq []float64) float64 {
	var e, n float64
	for i := range errSq {
		e += errSq[i]
		n += normSq[i]
	}
	return math.Sqrt(e) / math.Sqrt(n)
}

// roundOff is the FP64 error allowance of one radix-2 3-D transform of
// the n grid: 16·ε·log2(N), well above the ε·log2(N) growth of the
// exact pipeline and far below any lossy method's bound.
func roundOff(n [3]int) float64 {
	return 16 * 0x1p-52 * math.Log2(float64(n[0]*n[1]*n[2]))
}

// errorBudget is the relative L2 error a config may reach: the
// compounded per-stage bounds ∏(1+eᵢ)−1 over core.StageBounds (forward
// stages, plus backward ones for a round trip), plus FP64 round-off per
// transform. A config with a user tolerance must also meet it.
func errorBudget(opts core.Options, roundTrip bool, n [3]int) float64 {
	stages := core.StageBounds(opts, false)
	transforms := 1.0
	if roundTrip {
		stages = append(stages, core.StageBounds(opts, true)...)
		transforms = 2
	}
	prod := 1.0
	for _, s := range stages {
		prod *= 1 + s.Bound
	}
	budget := prod - 1 + transforms*roundOff(n)
	if opts.Tolerance > 0 && opts.Tolerance < budget {
		budget = opts.Tolerance
	}
	return budget
}

// checkCell returns why a cell's output is wrong, or "" when it is
// correct: FFT errors must be finite and within budget; all-to-all
// cells must deliver exactly the volume their bandwidth divides by,
// once per exchange run (the warmup and the timed ones).
func checkCell(w workload, c cell) string {
	if w.fft() {
		if math.IsNaN(c.err) || math.IsInf(c.err, 0) {
			return fmt.Sprintf("error is %v", c.err)
		}
		if c.err > c.budget {
			return fmt.Sprintf("error %.3g exceeds budget %.3g", c.err, c.budget)
		}
		return ""
	}
	want := c.volume * int64(w.timed+1)
	if c.delivered != want {
		return fmt.Sprintf("delivered %d bytes, bandwidth formula expects %d", c.delivered, want)
	}
	return ""
}
