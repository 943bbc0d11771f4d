package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// replaySeconds is how long each kernel replay repeats, so that its
// rate is not a single timer read.
const replaySeconds = 0.25

// traced makes a traced pass over the workload's configs at seed, with
// an untraced pass before and after it, and returns the per-layer
// metrics. The traced pass
// attaches an obs recorder to every engine run, keeps the benchmark's
// spans in memory and records a CPU profile; both are written under
// outdir when the pass ends. Layers and configs the workload does not
// run report 0.
func traced(w workload, seed uint64, outdir string, out io.Writer) (result, error) {
	t := newTally(w, seed)
	vals := map[string]float64{}
	for _, m := range perLayer() {
		vals[m.Name] = 0
	}

	// Untraced passes on each side of the traced one. The first warms
	// the heap and measures the Go runtime's allocation without
	// recording; the second, as warm as the traced pass, is the base of
	// obs.trace_overhead and netsim.host_us_per_msg.
	var untraced, engine float64
	plain := func() {
		untraced, engine = 0, 0
		for _, cf := range w.configs {
			c := t.run(cf, seed, nil)
			t.check(cf, seed, c)
			untraced += median(c.samples())
			engine += c.engine.secs()
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	plain()
	runtime.ReadMemStats(&ms1)
	vals["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	vals["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)

	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return result{}, err
	}
	profPath := filepath.Join(outdir, w.name+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return result{}, err
	}
	tr := &tracer{}
	root := tr.open("workload", w.name, -1)
	var tracedRun float64
	var stats netsim.Stats
	for _, cf := range w.configs {
		id := tr.open("cell", cf.name, root)
		rec := obs.New(obs.Options{Trace: true, Metrics: true})
		c := t.run(cf, seed, rec)
		tr.time("check", cf.name, id, func() { t.check(cf, seed, c) })
		tr.close(id)
		cellSpans(tr, w, cf, id, c)
		tracedRun += median(c.samples())
		addStats(&stats, c.v.Stats)
		layerValues(vals, w, cf, c, rec)
	}
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return result{}, err
	}
	plain()
	vals["obs.trace_overhead"] = tracedRun / untraced
	vals["netsim.messages"] = float64(stats.Messages)
	vals["netsim.bytes_inter"] = float64(stats.BytesInter)
	vals["netsim.bytes_intra"] = float64(stats.BytesIntra)
	vals["netsim.puts"] = float64(stats.Puts)
	vals["netsim.fences"] = float64(stats.Fences)
	vals["netsim.flushes"] = float64(stats.Flushes)
	vals["netsim.host_us_per_msg"] = 1e6 * engine / float64(stats.Messages)

	// Replays of single layers outside the engine, on the cell's
	// geometry and field.
	if w.fft() {
		tr.time("replay.grid", w.name, root, func() { replayGrid(vals, w, seed) })
		tr.time("replay.fft", w.name, root, func() { replayFFT(vals, w) })
		tr.time("replay.compress", w.name, root, func() { replayCompress(vals, w, seed) })
	}
	tr.time("replay.barrier", w.name, root, func() { vals["mpi.barrier_host_us"] = barrierUS(w) })
	tr.close(root)

	spanPath := filepath.Join(outdir, w.name+".spans.json")
	f, err := os.Create(spanPath)
	if err != nil {
		return result{}, err
	}
	if err := writeSpans(f, tr.spans); err != nil {
		f.Close()
		return result{}, err
	}
	if err := f.Close(); err != nil {
		return result{}, err
	}
	printSelfTimes(out, tr.spans)
	fmt.Fprintf(out, "spans: %s\ncpu profile: %s (go tool pprof -top %s)\n", spanPath, profPath, profPath)
	return newResult(perLayer(), vals, len(w.configs), len(t.fails)), nil
}

// cellSpans records the host spans measured inside one cell's engine
// run under the cell span id.
func cellSpans(tr *tracer, w workload, cf config, id int, c cell) {
	eng := tr.add("engine", cf.name, id, c.engine)
	setup := tr.add("setup", cf.name, eng, c.setup)
	construct, timed := "core.NewPlan", "core.Forward"
	if !w.fft() {
		construct, timed = "exchange.construct", "exchange."+cf.algo
	}
	tr.add(construct, cf.name, setup, c.plan)
	tr.add("warmup", cf.name, eng, c.warmup)
	for i, iv := range c.forward {
		tr.add(timed, cf.name, eng, iv)
		if w.roundTrip {
			tr.add("core.Backward", cf.name, eng, c.backward[i])
		}
	}
}

// layerValues fills the per-layer metrics of one traced cell.
func layerValues(vals map[string]float64, w workload, cf config, c cell, rec *obs.Recorder) {
	ph := phaseMeans(rec, netsim.Summit(w.nodes).Ranks())
	vals["exchange.vt_fence_s"] += ph[obs.PhaseFence]
	vals["exchange.vt_flush_s"] += ph[obs.PhaseFlush]
	if !w.fft() {
		vals["exchange."+cf.algo+".host_s"] = medianSecs(c.forward)
		vals["exchange.construct_host_s"] += c.plan.secs()
		return
	}
	vals["core.plan_host_s."+cf.name] = c.plan.secs()
	vals["core.forward_host_s."+cf.name] = medianSecs(c.forward)
	vals["core.backward_host_s."+cf.name] = medianSecs(c.backward)
	p := c.v.Profile
	vals["core.vt_pack_s."+cf.name] = p.Pack
	vals["core.vt_exchange_s."+cf.name] = p.Exchange
	vals["core.vt_unpack_s."+cf.name] = p.Unpack
	vals["core.vt_fft_s."+cf.name] = p.FFT
	if cf.opts.Backend != core.BackendCompressed {
		return
	}
	vals["compress.vt_compress_s."+cf.name] = ph[obs.PhaseCompress]
	vals["compress.vt_decompress_s."+cf.name] = ph[obs.PhaseDecompress]
	vals["compress.vt_compress_wait_s."+cf.name] = ph[obs.PhaseCompressWait]
	var raw, wire int64
	for _, s := range rec.Metrics().CompressionStats() {
		raw += s.RawBytes
		wire += s.WireBytes
	}
	vals["compress."+methodKey(cf.opts)+".ratio"] = float64(raw) / float64(wire)
}

// phaseMeans sums each phase's span durations over a recording's ranks,
// host and GPU tracks alike, and divides by the rank count.
func phaseMeans(rec *obs.Recorder, ranks int) map[obs.Phase]float64 {
	out := map[obs.Phase]float64{}
	for _, id := range rec.RankIDs() {
		for _, s := range rec.RankSpans(id) {
			out[s.Phase] += s.End - s.Begin
		}
	}
	for ph := range out {
		out[ph] /= float64(ranks)
	}
	return out
}

func addStats(dst *netsim.Stats, s netsim.Stats) {
	dst.Messages += s.Messages
	dst.BytesInter += s.BytesInter
	dst.BytesIntra += s.BytesIntra
	dst.Puts += s.Puts
	dst.Fences += s.Fences
	dst.Flushes += s.Flushes
}

// methodKey names the compression method of a compressed config, as
// resolved by the plan.
func methodKey(o core.Options) string {
	m := o.Method
	if m == nil {
		m = compress.FromTolerance(o.Tolerance)
	}
	return keyOf(m)
}

func keyOf(m compress.Method) string {
	switch m := m.(type) {
	case compress.Cast32:
		return "cast32"
	case compress.Cast16:
		return "cast16"
	case compress.Trim:
		return fmt.Sprintf("trim%d", m.M)
	}
	return m.Name()
}

// stageBoxes returns the five decompositions of a plan over p ranks:
// input bricks, x-, y- and z-pencils, output bricks.
func stageBoxes(n [3]int, p int) [5][]grid.Box {
	b := grid.Bricks(n, grid.Factor3(p))
	return [5][]grid.Box{b, grid.Pencils(n, 0, p), grid.Pencils(n, 1, p), grid.Pencils(n, 2, p), b}
}

// reshapes are a plan's (from, to) stage pairs: fwd0..3 then bwd0..3.
var reshapes = [8][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 3}, {3, 2}, {2, 1}, {1, 0}}

// replayGrid replays the grid layer of the cell outside the engine:
// every rank's box construction and reshape planning on the data and
// (with SimScale) time planes, then pack and unpack of every forward
// reshape's transfers.
func replayGrid(vals map[string]float64, w workload, seed uint64) {
	p := netsim.Summit(w.nodes).Ranks()
	n := w.grid()
	planes := [][3]int{n}
	if s := w.simScale; s > 1 {
		planes = append(planes, [3]int{s * n[0], s * n[1], s * n[2]})
	}
	transfers := 0
	start := now()
	for me := 0; me < p; me++ {
		for _, pn := range planes {
			bx := stageBoxes(pn, p)
			for _, r := range reshapes {
				transfers += len(grid.NewPlan(me, bx[r[0]], bx[r[1]]).Send)
			}
		}
	}
	vals["grid.plan_host_s"] = (now() - start).Seconds()
	vals["grid.transfers"] = float64(transfers)

	bx := stageBoxes(n, p)
	orders := [5]grid.Order{grid.Natural, grid.ForAxis(0), grid.ForAxis(1), grid.ForAxis(2), grid.Natural}
	var packT, unpackT float64
	var packed, unpacked int64
	for begin := now(); (now() - begin).Seconds() < 2*replaySeconds; {
		for _, r := range reshapes[:4] {
			for me := 0; me < p; me++ {
				pl := grid.NewPlan(me, bx[r[0]], bx[r[1]])
				src := make([]complex128, bx[r[0]][me].Count())
				core.FillBox(src, bx[r[0]][me], orders[r[0]], seed)
				stage := make([]complex128, max(pl.SendTotal, pl.RecvTotal))
				dst := make([]complex128, bx[r[1]][me].Count())
				t0 := now()
				for _, tr := range pl.Send {
					grid.Pack(src, bx[r[0]][me], orders[r[0]], tr.Sub, orders[r[1]], stage[tr.Offset:])
				}
				t1 := now()
				for _, tr := range pl.Recv {
					grid.Unpack(stage[tr.Offset:], tr.Sub, dst, bx[r[1]][me], orders[r[1]])
				}
				packT += (t1 - t0).Seconds()
				unpackT += (now() - t1).Seconds()
				packed += 16 * int64(pl.SendTotal)
				unpacked += 16 * int64(pl.RecvTotal)
			}
		}
	}
	vals["grid.pack_gbps"] = float64(packed) / packT / 1e9
	vals["grid.unpack_gbps"] = float64(unpacked) / unpackT / 1e9
}

// replayFFT replays the cell's 1-D FFT batches: every rank's pencils
// along each axis, on the data plane.
func replayFFT(vals map[string]float64, w workload) {
	p := netsim.Summit(w.nodes).Ranks()
	n := w.grid()
	bx := stageBoxes(n, p)
	var plans [3]*fft.Plan[complex128]
	for a := range plans {
		plans[a] = fft.NewPlan[complex128](n[a])
	}
	var flops, secs float64
	for begin := now(); (now() - begin).Seconds() < replaySeconds; {
		for a := 0; a < 3; a++ {
			for me := 0; me < p; me++ {
				x := make([]complex128, bx[a+1][me].Count())
				for i := range x {
					x[i] = complex(float64(i%7), float64(i%5))
				}
				batch := len(x) / n[a]
				t0 := now()
				plans[a].Batch(x, batch, fft.Forward)
				secs += (now() - t0).Seconds()
				flops += float64(batch) * fft.FlopCount(n[a])
			}
		}
	}
	vals["fft.host_gflops"] = flops / secs / 1e9
}

// compressSample bounds the field sample the compression replay codes.
const compressSample = 1 << 19

// replayCompress times encode and decode of each exchange method on the
// cell's field, as interleaved float64 values.
func replayCompress(vals map[string]float64, w workload, seed uint64) {
	n := w.grid()
	cnt := min(n[0]*n[1]*n[2], compressSample)
	src := make([]float64, 0, 2*cnt)
	for idx := 0; idx < cnt; idx++ {
		i, j, k := idx%n[0], idx/n[0]%n[1], idx/(n[0]*n[1])
		v := core.FieldValue(seed, i, j, k)
		src = append(src, real(v), imag(v))
	}
	dec := make([]float64, len(src))
	raw := float64(8 * len(src))
	for _, m := range []compress.Method{compress.Cast32{}, compress.Cast16{}, compress.Trim{M: 13}} {
		buf := make([]byte, m.MaxCompressedLen(len(src)))
		key := "compress." + keyOf(m)
		var reps int
		begin := now()
		for ; reps == 0 || (now()-begin).Seconds() < replaySeconds/2; reps++ {
			m.Compress(buf, src)
		}
		vals[key+".encode_gbps"] = raw * float64(reps) / (now() - begin).Seconds() / 1e9
		reps = 0
		begin = now()
		for ; reps == 0 || (now()-begin).Seconds() < replaySeconds/2; reps++ {
			m.Decompress(dec, buf)
		}
		vals[key+".decode_gbps"] = raw * float64(reps) / (now() - begin).Seconds() / 1e9
	}
}

// barrierReps is the number of empty barriers barrierUS times.
const barrierReps = 32

// barrierUS is the host microseconds of one empty barrier at the cell's
// rank count: barrierReps barriers between a warm barrier and the end.
func barrierUS(w workload) float64 {
	cfg := netsim.Summit(w.nodes)
	m := newMarks(cfg.Ranks(), 1)
	mpi.Run(cfg, func(c *mpi.Comm) {
		c.Barrier()
		m[c.Rank()][markFwdStart(0)] = now()
		for i := 0; i < barrierReps; i++ {
			c.Barrier()
		}
		m[c.Rank()][markFwdEnd(0)] = now()
	})
	return 1e6 * m.span(markFwdStart(0), markFwdEnd(0)).secs() / barrierReps
}
