// Package ppca implements the paper's contribution: Probabilistic PCA
// (Tipping & Bishop's EM algorithm, Algorithm 1) and its scalable
// distributed variant sPCA (Algorithm 4/5) with the four optimizations of
// §3 — mean propagation, intermediate-data minimization via redundant
// recomputation of X and job consolidation, broadcast-style in-memory matrix
// multiplication, and the streaming sparse Frobenius norm. Each optimization
// is individually switchable so the Table 3 ablations can be reproduced.
//
// Three fit paths share the same driver-side math:
//
//   - FitLocal:     single-machine reference (Algorithm 1)
//   - FitMapReduce: sPCA on the internal/mapred engine (Algorithm 4)
//   - FitSpark:     sPCA on the internal/rdd engine (Algorithm 5)
package ppca

import (
	"errors"
	"fmt"
	"math"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/matrix"
	"spca/internal/parallel"
	"spca/internal/trace"
)

// Options configures a PPCA/sPCA fit. The zero value is not valid; start
// from DefaultOptions.
type Options struct {
	// Components is d, the number of principal components to extract.
	Components int
	// MaxIter caps EM iterations (the paper limits runs to 10).
	MaxIter int
	// Tol stops iterating when the relative change in reconstruction error
	// falls below it.
	Tol float64
	// TargetAccuracy, if positive, stops as soon as the fit reaches this
	// fraction (e.g. 0.95) of the ideal accuracy. Requires IdealError.
	TargetAccuracy float64
	// IdealError is the reconstruction error of an exact rank-d PCA on the
	// same sampled rows, used to convert errors into "% of ideal accuracy".
	// Compute it with IdealError(); zero disables accuracy reporting.
	IdealError float64
	// SampleRows bounds how many rows the error metric touches (§5: the
	// error is measured on a random subset of rows). Zero means 256.
	SampleRows int
	// Seed makes the random initialization reproducible.
	Seed uint64

	// Optimization switches (§3). All true = full sPCA; flipping one off
	// reproduces the corresponding row of Table 3.
	MeanPropagation      bool // §3.1: never densify Y - Ym
	MinimizeIntermediate bool // §3.2: recompute X, consolidate XtX+YtX
	EfficientFrobenius   bool // §3.4: Algorithm 3 instead of Algorithm 2
	// StatefulCombiner (§4.1, MapReduce only): accumulate YtX/XtX partials
	// in mapper memory and flush once per task. When false, mappers emit a
	// partial per input row with no combining — the naive behaviour whose
	// mapper-output volume sinks Mahout-PCA in §5.2.
	StatefulCombiner bool
	// AssociativeSS3 (§4.1, Eq. 3): compute Xi·(Cᵀ·Yiᵀ) so the sparse
	// vector is multiplied first. When false, the dense (Xi·Cᵀ)·Yiᵀ order
	// is used, costing O(D·d) per row instead of O(nnz·d).
	AssociativeSS3 bool

	// SmartGuess enables sPCA-SG (§5.2): initialize C and ss by first
	// running the fit on a small sample of rows.
	SmartGuess bool
	// SmartGuessRows is the sample size for SmartGuess (default N/10,
	// clamped to [2d, 2000]).
	SmartGuessRows int

	// DivergeWindow arms the divergence guard: when the reconstruction error
	// rises this many consecutive iterations, the driver rolls back to the
	// best model seen so far and escalates a standing ridge on the M-step
	// solves. Zero disables the guard (and its best-model tracking).
	DivergeWindow int

	// Checkpoint configures periodic durable driver snapshots. The zero
	// value disables them; see CheckpointSpec.
	Checkpoint CheckpointSpec
	// Resume, when non-nil, restarts the fit from a snapshot instead of from
	// the random initialization: the mean/Frobenius jobs and SmartGuess are
	// skipped, the snapshot's model/guard/history/metrics state is restored,
	// and iteration continues at snap.Iter+1 — producing a final model
	// bit-identical to the uninterrupted run.
	Resume *checkpoint.Snapshot
	// Faults carries the fault plan for driver-crash injection (task-level
	// faults are configured on the engines themselves). Incarnation is this
	// driver's 0-based crash-schedule index: the facade increments it on
	// every restart so a resumed driver consults the next scheduled crash.
	Faults      *cluster.FaultPlan
	Incarnation int
	// RecoveredSeconds is the simulated time a previous incarnation wasted
	// on work this run redoes (iterations past the snapshot, or the whole
	// run when restarting from scratch). It is charged to RecoverySeconds at
	// restore time and never touches the simulated clock.
	RecoveredSeconds float64

	// Tracer, when non-nil, receives deterministic spans for the fit, every
	// EM iteration, every engine job/action/phase charge, and fault events,
	// all stamped with the simulated clock. Nil (the default) disables
	// tracing with zero overhead on the steady-state paths.
	Tracer *trace.Tracer

	// Interrupt, when non-nil, is polled at every iteration boundary (and by
	// the engines at phase boundaries via the cluster). On cancel, deadline,
	// or stall the guarded loop stops at the boundary, writes a final
	// checkpoint when configured, and returns a *cluster.AbortError. Nil (the
	// default) makes the fit uninterruptible; the poll is allocation-free so
	// a live handle leaves the steady state and the cost model untouched.
	Interrupt *cluster.Interrupt
}

// DefaultOptions returns the paper's settings: d components, at most 10
// iterations, all optimizations on.
func DefaultOptions(d int) Options {
	return Options{
		Components:           d,
		MaxIter:              10,
		Tol:                  1e-3,
		SampleRows:           256,
		Seed:                 42,
		MeanPropagation:      true,
		MinimizeIntermediate: true,
		EfficientFrobenius:   true,
		StatefulCombiner:     true,
		AssociativeSS3:       true,
	}
}

func (o Options) validate(n, dims int) error {
	if o.Components <= 0 {
		return errors.New("ppca: Components must be positive")
	}
	if o.Components > dims {
		return fmt.Errorf("ppca: Components %d exceeds dimensionality %d", o.Components, dims)
	}
	if n == 0 {
		return errors.New("ppca: empty input")
	}
	if o.MaxIter <= 0 {
		return errors.New("ppca: MaxIter must be positive")
	}
	return nil
}

func (o Options) sampleRows() int {
	if o.SampleRows <= 0 {
		return 256
	}
	return o.SampleRows
}

// IterationStat records the state after one EM iteration.
type IterationStat struct {
	Iter       int
	Err        float64 // sampled relative 1-norm reconstruction error
	Accuracy   float64 // fraction of ideal accuracy (0 when IdealError unset)
	SS         float64 // noise variance estimate
	SimSeconds float64 // cumulative simulated seconds (engine fits only)

	// Numerical-guard trace (all zero on a healthy iteration).
	Ridge        float64 // total ridge applied to this iteration's M-step solve
	RidgeRetries int     // reactive ridge retries the solve needed
	Rollback     bool    // divergence guard rolled back to the best model
}

// Result is the output of a fit.
type Result struct {
	// Components holds the d principal directions as columns (D x d).
	Components *matrix.Dense
	// Mean is the column-mean vector the model centers with.
	Mean []float64
	// SS is the fitted noise variance.
	SS float64
	// Iterations is the number of EM iterations executed.
	Iterations int
	// History has one entry per iteration.
	History []IterationStat
	// Metrics holds the simulated-cluster accounting (engine fits only).
	Metrics cluster.Metrics
	// Phases is the per-phase cost breakdown of the run (engine fits only),
	// aggregated from the cluster's phase log. After a crash/resume it covers
	// the final driver incarnation — the phase log is not checkpointed.
	Phases []cluster.PhaseSummary
}

// Transform projects rows of y (sparse, uncentered) onto the fitted
// components: X = (Y - mean) * C * M⁻¹, the posterior-mean latent positions.
func (r *Result) Transform(y *matrix.Sparse) (*matrix.Dense, error) {
	if y.C != r.Components.R {
		return nil, fmt.Errorf("ppca: Transform dims %d vs model %d", y.C, r.Components.R)
	}
	cm, _, err := latentMap(r.Components, r.SS)
	if err != nil {
		return nil, err
	}
	return y.CenteredMulDense(r.Mean, cm), nil
}

// Reconstruct maps latent positions back to data space: X*Cᵀ + mean.
func (r *Result) Reconstruct(x *matrix.Dense) *matrix.Dense {
	out := x.MulBT(r.Components)
	for i := 0; i < out.R; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += r.Mean[j]
		}
	}
	return out
}

// latentMap returns CM = C*M⁻¹ and M⁻¹ for M = CᵀC + ss·I.
func latentMap(c *matrix.Dense, ss float64) (cm, minv *matrix.Dense, err error) {
	m := c.MulT(c).AddScaledIdentity(ss)
	minv, err = matrix.Inverse(m)
	if err != nil {
		return nil, nil, fmt.Errorf("ppca: M = CᵀC+ss·I singular: %w", err)
	}
	return c.Mul(minv), minv, nil
}

// emDriver holds the driver-side state shared by all three fit paths.
type emDriver struct {
	opt  Options
	n, d int
	dims int

	c    *matrix.Dense // current D x d components
	ss   float64
	mean []float64
	ss1  float64 // ||Yc||²_F, fixed across iterations

	// Per-iteration broadcast state.
	cm   *matrix.Dense // C*M⁻¹ (D x d)
	minv *matrix.Dense // M⁻¹ (d x d)
	xm   []float64     // mean's latent image Ym*CM (1 x d)

	// Carried between update and finishVariance within one iteration.
	pendingSS2  float64
	pendingSumX []float64

	// Reusable driver-side scratch, allocated once in newEMDriver. Every
	// per-iteration product is written in place, so the steady state of the
	// EM loop performs no driver-side allocation.
	cNext   *matrix.Dense // M-step solve output; swapped with c each iteration
	mWork   *matrix.Dense // d x d: M = CᵀC + ss·I, later XtX + ss·M⁻¹
	invWork *matrix.Dense // d x 2d Gauss-Jordan scratch for InverseInto
	ctc     *matrix.Dense // d x d: CᵀC for the ss2 trace
	ctym    []float64     // d: Cᵀ·Ym
	spdWS   matrix.SPDWorkspace
	errXi   []float64 // d: latent position scratch for the error metric
	errNum  []float64 // dims
	errDen  []float64 // dims

	// Durability and numerical-guard state (see guard.go). ridgeLevel is the
	// standing ridge escalation from divergence rollbacks; lastRidge and
	// iterRidgeRetries trace the current iteration's guard activity into its
	// History entry; bestC/bestSS/bestErr/bestIter track the rollback target
	// (bestC preallocated only when the divergence guard is armed).
	ridgeLevel       int
	rising           int
	lastRidge        float64
	iterRidgeRetries int
	haveBest         bool
	bestErr          float64
	bestSS           float64
	bestIter         int
	bestC            *matrix.Dense
}

func newEMDriver(opt Options, n, dims int, mean []float64, ss1 float64) *emDriver {
	rng := matrix.NewRNG(opt.Seed + 0x5354)
	d := opt.Components
	var bestC *matrix.Dense
	if opt.DivergeWindow > 0 {
		bestC = matrix.NewDense(dims, d) // rollback target, copied into in place
	}
	return &emDriver{
		bestC:   bestC,
		opt:     opt,
		n:       n,
		d:       d,
		dims:    dims,
		c:       matrix.NormRnd(rng, dims, d),
		ss:      math.Abs(matrix.NewRNG(opt.Seed+0x9999).NormFloat64()) + 1,
		mean:    mean,
		ss1:     ss1,
		cNext:   matrix.NewDense(dims, d),
		cm:      matrix.NewDense(dims, d),
		minv:    matrix.NewDense(d, d),
		xm:      make([]float64, d),
		mWork:   matrix.NewDense(d, d),
		invWork: matrix.NewDense(d, 2*d),
		ctc:     matrix.NewDense(d, d),
		ctym:    make([]float64, d),
		errXi:   make([]float64, d),
		errNum:  make([]float64, dims),
		errDen:  make([]float64, dims),
	}
}

// prepare computes the per-iteration broadcast matrices (CM, M⁻¹, Xm).
// M = CᵀC + ss·I is positive definite whenever C is well conditioned; if the
// inverse still fails, the same bounded escalating ridge as the M-step solve
// is applied to M's diagonal (equivalent to temporarily inflating ss).
func (em *emDriver) prepare() error {
	// In-place latentMap: M = CᵀC + ss·I, M⁻¹, CM = C·M⁻¹, all into driver
	// scratch. Same kernels as the allocating path, so same bits.
	em.c.MulTInto(em.c, em.mWork)
	for i := 0; i < em.d; i++ {
		em.mWork.Data[i*em.d+i] += em.ss
	}
	err := matrix.InverseInto(em.mWork, em.minv, em.invWork)
	for attempt := 0; err != nil; attempt++ {
		if !errors.Is(err, matrix.ErrSingular) || attempt >= maxRidgeRetries {
			return fmt.Errorf("ppca: M = CᵀC+ss·I singular: %w (%w)", err, ErrNumericalBreakdown)
		}
		lam := (1 + em.ss) * 1e-10 * pow10(attempt)
		addDiag(em.mWork, lam)
		em.iterRidgeRetries++
		err = matrix.InverseInto(em.mWork, em.minv, em.invWork)
	}
	em.c.MulInto(em.minv, em.cm)
	for k := range em.xm {
		em.xm[k] = 0
	}
	for j, mj := range em.mean {
		if mj != 0 {
			matrix.AXPY(mj, em.cm.Row(j), em.xm)
		}
	}
	return nil
}

// jobSums is what one pass over the data must produce: the consolidated
// YtXJob outputs of Algorithm 4.
type jobSums struct {
	ytx  *matrix.Dense // Σ Yiᵀ·Xi_c (D x d), mean term NOT yet subtracted
	xtx  *matrix.Dense // Σ Xi_cᵀ·Xi_c (d x d), ss·M⁻¹ NOT yet added
	sumX []float64     // Σ Xi_c (d)
}

// update performs the driver-side M-step given the job sums, returning the
// new C. ss is updated after the ss3 pass via finishVariance.
func (em *emDriver) update(s jobSums) (*matrix.Dense, error) {
	// The caller owns s and rebuilds it from scratch every pass, so the mean
	// correction can run directly on s.ytx instead of a clone.
	ytx := s.ytx
	parallel.For(len(em.mean), 2048/(em.d+1)+1, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if mj := em.mean[j]; mj != 0 {
				matrix.AXPY(-mj, s.sumX, ytx.Row(j))
			}
		}
	})
	// XtX = Σ Xi_cᵀ Xi_c + ss·M⁻¹ (the two-statement AddScaledInto rounding
	// matches the Scale-then-Add composition bit for bit).
	xtx := matrix.AddScaledInto(em.mWork, s.xtx, em.ss, em.minv)
	// Solve into the spare components buffer, then swap it in: the previous
	// C's storage becomes next iteration's solve output.
	if err := em.solveGuarded(xtx, ytx, em.cNext, &em.spdWS); err != nil {
		return nil, err
	}
	em.c, em.cNext = em.cNext, em.c
	cNew := em.c

	// ss2 = trace(XtX · Cᵀ·C), without materializing the product.
	cNew.MulTInto(cNew, em.ctc)
	em.pendingSS2 = matrix.TraceMul(xtx, em.ctc)
	em.pendingSumX = s.sumX
	return cNew, nil
}

// finishVariance folds the ss3 job result into the noise variance:
// ss = (ss1 + ss2 - 2·ss3)/(N·D). ss3Raw is Σ Xi_c·(Cᵀ·Yiᵀ); the mean
// correction -(Σ Xi_c)·(Cᵀ·Ym) is applied here.
func (em *emDriver) finishVariance(ss3Raw float64) {
	ctym := em.c.MulVecTInto(em.mean, em.ctym) // Cᵀ·Ym (d)
	ss3 := ss3Raw - matrix.Dot(em.pendingSumX, ctym)
	ss := (em.ss1 + em.pendingSS2 - 2*ss3) / (float64(em.n) * float64(em.dims))
	if ss < 1e-12 || math.IsNaN(ss) {
		ss = 1e-12 // numerical floor; PPCA's ss is a variance and must stay positive
	}
	em.ss = ss
}

// errorSample returns the deterministic sorted row sample of an n-row input
// the error metric is measured on.
func (o Options) errorSample(n int) []int {
	return matrix.SampleIdx(matrix.NewRNG(o.Seed+0xACC), n, o.sampleRows())
}

// rowAt is row-indexed access to an input matrix: a *matrix.Sparse, or the
// caller's row records wrapped as sparseRows.
type rowAt interface {
	Row(i int) matrix.SparseVector
}

// sparseRows serves the caller's row records by index, so the distributed
// engines read their input in place instead of rebuilding it as a CSR copy.
type sparseRows []matrix.SparseVector

func (r sparseRows) Row(i int) matrix.SparseVector { return r[i] }

// reconError is the driver-scratch entry point used by the fit loops.
func reconError[R rowAt](em *emDriver, y R, rows []int) float64 {
	return reconstructionErrorInto(y, em.mean, em.c, em.cm, em.xm, rows, em.errXi, em.errNum, em.errDen)
}

// reconstructionErrorInto computes the paper's accuracy metric on the given
// rows: e = ||Yr - reconstruction||₁ / ||Yr||₁, reconstructing each sampled
// row as Xi_c·Cᵀ + Ym without materializing any large matrix. It runs on
// caller-provided scratch: xi (len d), tNum and tDen (len D), all fully
// overwritten.
func reconstructionErrorInto[R rowAt](y R, mean []float64, c *matrix.Dense, cm *matrix.Dense, xm []float64, rows []int, xi, tNum, tDen []float64) float64 {
	var num, den float64
	for _, i := range rows {
		row := y.Row(i)
		// Xi_c = Yi·CM - Xm
		for k := range xi {
			xi[k] = -xm[k]
		}
		for k, j := range row.Indices {
			matrix.AXPY(row.Values[k], cm.Row(j), xi)
		}
		// Reconstruction ŷ = Xi_c·Cᵀ + Ym, compared column by column; the
		// per-column terms fill in parallel and accumulate in ascending j,
		// matching the sequential evaluation bit for bit.
		matrix.ReconTerms(row, mean, c, xi, tNum, tDen)
		for j := range mean {
			num += tNum[j]
			den += tDen[j]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// IdealError computes the reconstruction error an exact rank-d PCA achieves
// on the sampled rows — the "ideal accuracy" baseline of §5. It uses Lanczos
// on the mean-propagated operator so the input is never densified.
func IdealError(y *matrix.Sparse, d int, opt Options) float64 {
	mean := y.ColMeans()
	steps := 3*d + 10
	_, _, v := matrix.LanczosSVD(matrix.CenteredOp{M: y, Mean: mean}, d, steps, matrix.NewRNG(opt.Seed+0x1DEA))
	rows := opt.errorSample(y.R)
	// Exact PCA reconstruction: ŷ = ((Yi-Ym)·V)·Vᵀ + Ym.
	var num, den float64
	k := v.C
	xi := make([]float64, k)
	vm := v.MulVecT(mean) // Ym·V
	tNum := make([]float64, y.C)
	tDen := make([]float64, y.C)
	for _, i := range rows {
		row := y.Row(i)
		for t := range xi {
			xi[t] = -vm[t]
		}
		for t, j := range row.Indices {
			matrix.AXPY(row.Values[t], v.Row(j), xi)
		}
		matrix.ReconTerms(row, mean, v, xi, tNum, tDen)
		for j := 0; j < y.C; j++ {
			num += tNum[j]
			den += tDen[j]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// converged applies the STOP_CONDITION of §5.1.
func (o Options) converged(hist []IterationStat) bool {
	n := len(hist)
	if n == 0 {
		return false
	}
	last := hist[n-1]
	if o.TargetAccuracy > 0 && last.Accuracy >= o.TargetAccuracy {
		return true
	}
	if n >= 2 {
		prev := hist[n-2]
		if prev.Err > 0 && math.Abs(prev.Err-last.Err)/prev.Err < o.Tol {
			return true
		}
	}
	return false
}

// denseXC fills xc[j] = xi · c_j for every row j of c — the dense sweep of
// the non-associative ss3 order (Xi·Cᵀ), O(D·d) per input row. Entries are
// disjoint, so the sweep runs on the parallel pool with values identical to
// the sequential loop.
func denseXC(xi []float64, c *matrix.Dense, xc []float64) {
	parallel.For(c.R, 16384/(2*len(xi)+1)+1, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			xc[j] = matrix.Dot(xi, c.Row(j))
		}
	})
}
