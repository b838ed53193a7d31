package ppca

import (
	"fmt"

	"spca/internal/cluster"
	"spca/internal/matrix"
	"spca/internal/parallel"
	"spca/internal/trace"
)

// latentBlock is how many rows the local pass precomputes latent vectors for
// at a time: the expensive per-row Xi_c (and ss3 dot) fills run on the
// parallel pool over the block, while the scatter-accumulation into the
// shared sums stays sequential in the original row order so every float64
// sum is bit-identical to the plain loop.
const latentBlock = 256

// FitLocal runs the PPCA EM algorithm (Algorithm 1) on a single machine.
// It is the reference implementation the distributed variants are tested
// against, and the engine behind SmartGuess initialization. Mean propagation
// is always used here — the input is never densified.
func FitLocal(y *matrix.Sparse, opt Options) (*Result, error) {
	if err := opt.validate(y.R, y.C); err != nil {
		return nil, err
	}
	if tr := opt.Tracer; tr != nil {
		// No simulated cluster: the trace carries structure (iterations,
		// events) with all timestamps at zero.
		tr.Begin("FitLocal", trace.KindFit,
			trace.I("rows", int64(y.R)), trace.I("dims", int64(y.C)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}
	mean := y.ColMeans()
	ss1 := y.CenteredFrobeniusSq(mean)
	em := newEMDriver(opt, y.R, y.C, mean, ss1)
	if opt.Resume == nil && opt.SmartGuess {
		if err := smartGuess(nil, y, y.R, y.C, opt, em); err != nil {
			return nil, fmt.Errorf("ppca: smart guess: %w", err)
		}
	}
	res := &Result{Mean: mean}

	// Pass scratch allocated once and recycled every iteration.
	e := &localEngine{y: y, scr: newLocalScratch(y.C, em.d), sample: opt.errorSample(y.R)}
	if err := runEM(em, opt, e, res); err != nil {
		return nil, err
	}
	return res, nil
}

// localEngine adapts the single-machine passes to the shared guarded EM
// loop. There is no simulated cluster, so the broadcast/compute charge hooks
// are no-ops and History.SimSeconds stays zero.
type localEngine struct {
	y      *matrix.Sparse
	scr    *localScratch
	sample []int
}

func (e *localEngine) cluster() *cluster.Cluster { return nil }
func (e *localEngine) faultEpoch() int64         { return 0 }
func (e *localEngine) setFaultEpoch(int64)       {}
func (e *localEngine) prepared(*emDriver)        {}
func (e *localEngine) pass(em *emDriver) (jobSums, error) {
	return localPass(e.y, em, e.scr), nil
}
func (e *localEngine) solved(*emDriver, *matrix.Dense) {}
func (e *localEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	return localSS3(e.y, em, cNew, e.scr), nil
}
func (e *localEngine) reconErr(em *emDriver) float64 { return reconError(em, e.y, e.sample) }

// localScratch is FitLocal's per-fit reusable pass state: the job sums, the
// per-block latent rows, the per-block ss3 terms, and per-worker xi/ct
// substitution buffers for the ss3 sweep.
type localScratch struct {
	sums  jobSums
	xis   *matrix.Dense
	terms []float64
	work  [][]float64 // per worker: xi then ct, each length d
}

func newLocalScratch(dims, d int) *localScratch {
	return &localScratch{
		sums:  newJobSums(dims, d),
		xis:   matrix.NewDense(latentBlock, d),
		terms: make([]float64, latentBlock),
	}
}

// ensureWorkers grows the per-worker buffers to the pool's current width.
// Called on the driver before the parallel sweep, so it never races.
func (s *localScratch) ensureWorkers(d int) {
	w := parallel.Workers()
	for len(s.work) < w {
		s.work = append(s.work, nil)
	}
	for i := 0; i < w; i++ {
		if len(s.work[i]) < 2*d {
			s.work[i] = make([]float64, 2*d)
		}
	}
}

// localPass is the consolidated YtX+XtX pass (one scan over the rows).
func localPass(y *matrix.Sparse, em *emDriver, scr *localScratch) jobSums {
	sums := scr.sums
	sums.zero()
	xis := scr.xis // fully overwritten block by block
	for base := 0; base < y.R; base += latentBlock {
		end := base + latentBlock
		if end > y.R {
			end = y.R
		}
		parallel.For(end-base, 16, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				computeLatentRow(y.Row(base+t), em, xis.Row(t))
			}
		})
		for t := 0; t < end-base; t++ {
			row := y.Row(base + t)
			xi := xis.Row(t)
			for k, j := range row.Indices {
				matrix.AXPY(row.Values[k], xi, sums.ytx.Row(j))
			}
			matrix.OuterAdd(sums.xtx, xi, xi)
			matrix.AXPY(1, xi, sums.sumX)
		}
	}
	return sums
}

// localSS3 recomputes X row by row and accumulates Σ Xi_c·(Cᵀ·Yiᵀ) with the
// associativity trick of §4.1: multiply Cᵀ with the sparse Yiᵀ first.
func localSS3(y *matrix.Sparse, em *emDriver, c *matrix.Dense, scr *localScratch) float64 {
	d := em.d
	var ss3 float64
	// Per-row terms Xi_c·(Cᵀ·Yiᵀ) fill in parallel per block; the final sum
	// runs over rows in their original order, bit-identical to a plain loop.
	scr.ensureWorkers(d)
	terms := scr.terms
	ss3Row := func(t int, row matrix.SparseVector, xi, ct []float64) {
		computeLatentRow(row, em, xi)
		for k := range ct {
			ct[k] = 0
		}
		for k, j := range row.Indices {
			matrix.AXPY(row.Values[k], c.Row(j), ct)
		}
		terms[t] = matrix.Dot(xi, ct)
	}
	for base := 0; base < y.R; base += latentBlock {
		end := base + latentBlock
		if end > y.R {
			end = y.R
		}
		parallel.ForWorker(end-base, 16, func(w, lo, hi int) {
			sub := scr.work[w]
			xi, ct := sub[:d], sub[d:2*d]
			for t := lo; t < hi; t++ {
				ss3Row(t, y.Row(base+t), xi, ct)
			}
		})
		for t := 0; t < end-base; t++ {
			ss3 += terms[t]
		}
	}
	return ss3
}

// computeLatentRow fills xi with the centered latent row
// Xi_c = Yi·CM - Xm, touching only the row's non-zero entries.
func computeLatentRow(row matrix.SparseVector, em *emDriver, xi []float64) {
	for k := range xi {
		xi[k] = -em.xm[k]
	}
	for k, j := range row.Indices {
		matrix.AXPY(row.Values[k], em.cm.Row(j), xi)
	}
}

func smartGuessSize(opt Options, n int) int {
	sz := opt.SmartGuessRows
	if sz <= 0 {
		sz = n / 10
	}
	if min := 2 * opt.Components; sz < min {
		sz = min
	}
	if sz > 2000 {
		sz = 2000
	}
	if sz > n {
		sz = n
	}
	return sz
}

// sampleSparseRows builds a CSR matrix from a deterministic sample of count
// of y's n rows, copying only the sampled rows.
func sampleSparseRows[R rowAt](y R, n, dims, count int, seed uint64) *matrix.Sparse {
	idx := matrix.SampleIdx(matrix.NewRNG(seed+0xACC), n, count)
	b := matrix.NewSparseBuilder(dims)
	for _, i := range idx {
		row := y.Row(i)
		b.AddRow(row.Indices, row.Values)
	}
	return b.Build()
}

// smartGuess seeds em from a local fit on a sample of y's n rows. On a
// simulated cluster cl the sample fit's cost is charged to the driver (it is
// small by construction); the local engine passes a nil cl.
func smartGuess[R rowAt](cl *cluster.Cluster, y R, n, dims int, opt Options, em *emDriver) error {
	count := smartGuessSize(opt, n)
	if count >= n {
		return nil // nothing to gain
	}
	sample := sampleSparseRows(y, n, dims, count, opt.Seed+0x5A)
	subOpt := opt
	subOpt.SmartGuess = false
	subOpt.TargetAccuracy = 0
	subOpt.IdealError = 0
	subOpt.MaxIter = 5
	res, err := FitLocal(sample, subOpt)
	if err != nil {
		return err
	}
	if cl != nil {
		// Charge the sample fit: ~5 iterations x (2·nnz·d) on one driver core.
		cl.AddDriverCompute(int64(subOpt.MaxIter) * 2 * int64(sample.NNZ()) * int64(opt.Components))
	}
	em.c = res.Components
	em.ss = res.SS
	return nil
}
