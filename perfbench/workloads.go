package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"spca"
)

// workload is one named input set. WORKLOADS.md records why each was chosen
// and which layers it stresses and bypasses.
type workload struct {
	name       string
	kind       spca.DatasetKind
	rows, cols int
	d, iters   int
	// algs are the algorithms the workload fits, in the order it alternates
	// them (em-sparse, sketch-dense) or publishes them (serve-mixed).
	algs []spca.Algorithm
	// floor is the lowest accepted accuracy, IdealError/Err, of any fit.
	floor float64
	// shapes are the kernel operand shapes the direct-call ladder times.
	shapes kernelShapes
	serve  bool
}

// kernelShapes names the operands of the four timed matrix kernels:
// Sparse.MulDenseInto of the whole input by a cols x spK block, MulInto of
// (mul[0] x mul[1]) by (mul[1] x mul[2]), MulTInto of (mulT[0] x mulT[1])ᵀ
// by (mulT[0] x mulT[2]), and SolveSPDInto of a solve[0]-square system for
// solve[1] right-hand-side rows.
type kernelShapes struct {
	spK   int
	mul   [3]int
	mulT  [3]int
	solve [2]int
}

// serveBatchRows is the row count of every serving request.
const serveBatchRows = 16

var workloads = map[string]workload{
	// The paper's core case: EM on a wide sparse matrix, on both engines.
	"em-sparse": {
		name: "em-sparse", kind: spca.Tweets, rows: 20000, cols: 2000, d: 20, iters: 5,
		algs:  []spca.Algorithm{spca.SPCAMapReduce, spca.SPCASpark},
		floor: 0.85,
		shapes: kernelShapes{
			spK:   20,                    // Y·(C M⁻¹): the E-step product
			mul:   [3]int{2000, 20, 20},  // C·M⁻¹ on the driver
			mulT:  [3]int{20000, 20, 20}, // XᵀX over all rows
			solve: [2]int{20, 2000},      // the M-step solve for C
		},
	},
	// Randomized sketches of a dense matrix: dense kernels and allocation.
	"sketch-dense": {
		name: "sketch-dense", kind: spca.Images, rows: 5000, cols: 128, d: 16, iters: 5,
		algs:  []spca.Algorithm{spca.RSVDSpark, spca.RSVDMapReduce},
		floor: 0.95,
		shapes: kernelShapes{
			spK:   26,                    // Y·Ω with d+oversample columns
			mul:   [3]int{5000, 128, 26}, // the same product, dense
			mulT:  [3]int{5000, 128, 26}, // Yᵀ·Q, the power-iteration back-projection
			solve: [2]int{26, 128},       // a sketch-width SPD solve
		},
	},
	// Serving under mixed open-loop load with concurrent publishes. The
	// models are fitted during set-up, one per distributed engine.
	"serve-mixed": {
		name: "serve-mixed", kind: spca.Tweets, rows: 5000, cols: 512, d: 16, iters: 5,
		algs:  []spca.Algorithm{spca.SPCAMapReduce, spca.SPCASpark, spca.RSVDMapReduce, spca.RSVDSpark},
		floor: 0.80,
		shapes: kernelShapes{
			spK:   16,                              // a whole-input transform
			mul:   [3]int{serveBatchRows, 512, 16}, // one request's projection
			mulT:  [3]int{5000, 16, 16},            // XᵀX of the latent rows
			solve: [2]int{16, 512},                 // the posterior map C·M⁻¹
		},
		serve: true,
	},
}

// tinyVersion shrinks the workload so a self-test runs it in seconds.
func (w workload) tinyVersion() workload {
	w.rows, w.cols = 600, 64
	w.d, w.iters = 4, 2
	w.floor = 0.5
	w.shapes = kernelShapes{spK: 4, mul: [3]int{16, 64, 4}, mulT: [3]int{600, 4, 4}, solve: [2]int{4, 64}}
	return w
}

func (w workload) spec(seed uint64) spca.DatasetSpec {
	return spca.DatasetSpec{Kind: w.kind, Rows: w.rows, Cols: w.cols, Seed: seed}
}

func (w workload) inputSpec(seed uint64) map[string]any {
	algs := make([]string, len(w.algs))
	for i, a := range w.algs {
		algs[i] = string(a)
	}
	return map[string]any{
		"dataset": w.spec(seed).String(), "components": w.d, "max_iter": w.iters,
		"tol": -1, "algorithms": algs, "accuracy_floor": w.floor,
	}
}

// bench is one run's state.
type bench struct {
	o   options
	w   workload
	res *result

	y     *spca.Sparse
	ideal float64
	// ref is the first fit of each algorithm; every later fit of it must
	// reproduce its fingerprint and simulated seconds exactly.
	ref map[spca.Algorithm]fitOut
}

// fitOut is one spca.Fit call as the benchmark saw it.
type fitOut struct {
	alg         spca.Algorithm
	wall        time.Duration
	allocBytes  uint64
	allocObjs   uint64
	pauseNs     uint64 // GC stop-the-world time during the fit
	fingerprint uint64
	simS        float64
	accuracy    float64
	res         *spca.Result
}

func (b *bench) config(alg spca.Algorithm, obs spca.Observer) spca.Config {
	return spca.Config{
		Algorithm: alg, Components: b.w.d, MaxIter: b.w.iters, Tol: -1,
		Seed: b.o.seed, Observer: obs,
	}
}

// fit runs one fit and checks it: it must succeed, clear the accuracy floor,
// and reproduce the algorithm's reference fingerprint and cluster metrics,
// simulated seconds included, whether traced or not. The first fit of an
// algorithm becomes the reference and is checked against the pin for the
// default seed.
func (b *bench) fit(alg spca.Algorithm, obs spca.Observer) (fitOut, bool) {
	// Each fit starts from a collected heap, so where the previous fit left
	// the collector does not leak into this fit's time.
	runtime.GC()
	b0, o0, p0 := memStats()
	t0 := time.Now()
	res, err := spca.Fit(b.y, b.config(alg, obs))
	wall := time.Since(t0)
	b1, o1, p1 := memStats()
	out := fitOut{alg: alg, wall: wall, allocBytes: b1 - b0, allocObjs: o1 - o0, pauseNs: p1 - p0, res: res}
	if !b.res.check(err == nil, "%s fit: %v", alg, err) {
		return out, false
	}
	out.fingerprint = fingerprint(&res.Model)
	out.simS = res.Metrics.SimSeconds
	out.accuracy = b.ideal / res.Err
	ok := true
	if !(out.accuracy >= b.w.floor) {
		b.res.fail("%s fit: accuracy %.4f below the %.2f floor", alg, out.accuracy, b.w.floor)
		ok = false
	}
	ref, seen := b.ref[alg]
	switch {
	case !seen:
		b.ref[alg] = out
		ok = b.checkPin(out) && ok
	case out.fingerprint != ref.fingerprint || res.Metrics != ref.res.Metrics:
		b.res.fail("%s fit (traced %v): fingerprint %016x sim_s %v or cluster metrics differ from the run's first fit %016x sim_s %v",
			alg, obs != nil, out.fingerprint, out.simS, ref.fingerprint, ref.simS)
		ok = false
	}
	return out, ok
}

// checkPin compares a reference fit with the pinned values for the default
// seed. A workload or algorithm without a pin fails, so a changed workload
// cannot silently drop its pin.
func (b *bench) checkPin(f fitOut) bool {
	if b.o.seed != b.o.pinSeed || b.o.pins == nil {
		return true
	}
	key := b.w.name + "/" + string(f.alg)
	p, ok := b.o.pins[key]
	got := fmt.Sprintf("%016x", f.fingerprint)
	if !ok || p.Fingerprint != got || p.SimSeconds != f.simS {
		b.res.fail("%s: fingerprint %s sim_s %v does not match the pin %+v", key, got, f.simS, p)
		return false
	}
	return true
}

// setup generates the input, computes the IdealError reference, and warms
// up with one fit per algorithm. It returns the wall time it took.
func (b *bench) setup() (time.Duration, error) {
	t0 := time.Now()
	y, err := spca.NewDataset(b.w.spec(b.o.seed))
	if err != nil {
		return 0, err
	}
	b.y = y
	b.ideal = spca.IdealError(y, b.w.d, b.o.seed)
	if !(b.ideal > 0) || math.IsInf(b.ideal, 0) {
		return 0, fmt.Errorf("IdealError = %v", b.ideal)
	}
	b.ref = map[spca.Algorithm]fitOut{}
	for _, alg := range b.w.algs {
		// A fit that fails a check is counted and the run goes on; only a
		// fit that returns no model leaves nothing to measure.
		if f, _ := b.fit(alg, nil); f.res == nil {
			return 0, fmt.Errorf("%s warm-up fit failed: %v", alg, b.res.violations)
		}
	}
	return time.Since(t0), nil
}

// refDetail describes each algorithm's reference fit: its accuracy and the
// identity the pins hold.
func (b *bench) refDetail() map[string]map[string]any {
	out := map[string]map[string]any{}
	for _, alg := range b.w.algs {
		f := b.ref[alg]
		out[string(alg)] = map[string]any{
			"accuracy": f.accuracy, "sim_s": f.simS, "fingerprint": fmt.Sprintf("%016x", f.fingerprint),
		}
	}
	return out
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// setupRepeated runs a workload's set-up setupReps times, checks every
// repetition reproduces the same reference fits, and reports setup_s.
func (b *bench) setupRepeated(setup func() (time.Duration, error)) error {
	var times []float64
	var first map[spca.Algorithm]fitOut
	for i := 0; i < setupReps; i++ {
		d, err := setup()
		if err != nil {
			return err
		}
		times = append(times, d.Seconds())
		if first == nil {
			first = b.ref
			continue
		}
		for alg, f := range first {
			g := b.ref[alg]
			b.res.check(g.fingerprint == f.fingerprint && g.simS == f.simS,
				"%s: set-up %d fingerprint %016x differs from set-up 1 %016x", alg, i+1, g.fingerprint, f.fingerprint)
		}
	}
	b.res.set("setup_s", "s", median(times), len(times))
	b.res.detail["setup_s_runs"] = times
	return nil
}

// runFits is the untraced run of a fit workload. It runs rounds of one fit
// per algorithm, in the workload's order, until the measurement window
// closes. A round's mean fit time is one sample: the algorithms' fit times
// differ, so per-fit samples would form one cluster per algorithm and their
// median would jump between clusters from run to run.
func (b *bench) runFits() error {
	if err := b.setupRepeated(b.setup); err != nil {
		return err
	}
	perFit := func(x float64) float64 { return x / float64(len(b.w.algs)) }
	var roundMs, roundMB []float64
	wall := map[spca.Algorithm][]float64{}
	start := time.Now()
	deadline := start.Add(time.Duration(b.o.seconds * float64(time.Second)))
	for len(roundMs) < 2 || time.Now().Before(deadline) {
		ms, mb := 0.0, 0.0
		for _, alg := range b.w.algs {
			f, _ := b.fit(alg, nil)
			ms += float64(f.wall) / 1e6
			mb += float64(f.allocBytes) / (1 << 20)
			wall[alg] = append(wall[alg], float64(f.wall)/1e6)
		}
		roundMs = append(roundMs, perFit(ms))
		roundMB = append(roundMB, perFit(mb))
	}
	elapsed := time.Since(start).Seconds()

	perAlg := b.refDetail()
	for _, alg := range b.w.algs {
		perAlg[string(alg)]["fits"] = len(wall[alg])
		perAlg[string(alg)]["fit_ms_p50"] = median(wall[alg])
	}
	tv, tp := tail(roundMs)
	b.res.set("p50_ms", "ms", median(roundMs), len(roundMs))
	b.res.set("alloc_mb", "MB", median(roundMB), len(roundMB))
	b.res.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	b.res.detail["rounds"] = len(roundMs)
	b.res.detail["fit_ms_tail"] = map[string]any{"value": tv, "percentile": tp, "samples": len(roundMs)}
	b.res.detail["fits_per_s"] = float64(len(roundMs)*len(b.w.algs)) / elapsed
	b.res.detail["per_algorithm"] = perAlg
	b.res.detail["ideal_error"] = b.ideal
	return nil
}
