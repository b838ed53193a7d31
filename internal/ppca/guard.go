package ppca

// Durability and numerical guards for the EM driver. This file holds the
// guarded EM iteration all four engines share (runEM + emEngine, run as a
// step of the internal/rounds driver), the non-finite and divergence
// detectors, the deterministic escalating-ridge retry for the d×d SPD
// solves, and the snapshot/restore of the EM state. See DESIGN.md
// "Durability & numerical guards".

import (
	"errors"
	"fmt"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/matrix"
	"spca/internal/rounds"
	"spca/internal/trace"
)

// ErrNumericalBreakdown is the sentinel every numerical-guard failure wraps:
// a non-finite value in the model state, or a solve that stays singular after
// the bounded ridge escalation.
var ErrNumericalBreakdown = errors.New("ppca: numerical breakdown")

// BreakdownError reports which quantity went non-finite and at which EM
// iteration, so a failed long run is diagnosable without a debugger.
type BreakdownError struct {
	Iter     int    // 1-based EM iteration that produced the bad value
	Quantity string // "components" or "noise variance"
}

func (e *BreakdownError) Error() string {
	return fmt.Sprintf("ppca: non-finite %s after iteration %d", e.Quantity, e.Iter)
}

func (e *BreakdownError) Unwrap() error { return ErrNumericalBreakdown }

// CheckpointSpec configures periodic driver snapshots; see
// rounds.CheckpointSpec. The zero value disables checkpointing.
type CheckpointSpec = rounds.CheckpointSpec

// maxRidgeRetries bounds the reactive ridge escalation on a singular solve.
// Past it the input is genuinely unrecoverable and ErrSingular propagates.
const maxRidgeRetries = 6

// emEngine abstracts the per-iteration distributed work of one engine, so
// the guarded EM loop (runEM) is written once and shared by the MapReduce,
// Spark, local, and streaming fits. Driver-side math stays in emDriver; the
// engine supplies the data passes and the cost-model charges around them.
type emEngine interface {
	// prepared charges broadcasting the iteration's CM to the workers.
	prepared(em *emDriver)
	// pass runs the consolidated YtX/XtX/ΣX pass over the data.
	pass(em *emDriver) (jobSums, error)
	// solved charges the driver-side M-step math and broadcasting the new C.
	solved(em *emDriver, cNew *matrix.Dense)
	// ss3 runs the variance pass with the new C.
	ss3(em *emDriver, cNew *matrix.Dense) (float64, error)
	// reconErr computes the sampled reconstruction error of the current model.
	reconErr(em *emDriver) float64
	// cluster returns the simulated cluster, or nil for single-machine fits.
	cluster() *cluster.Cluster
	// faultEpoch reports the engine's fault-decision cursor (job sequence /
	// action epoch) for checkpoints, so a resumed driver replays the same
	// task-fault draws; setFaultEpoch restores it. Zero and a no-op for
	// single-machine engines.
	faultEpoch() int64
	setFaultEpoch(epoch int64)
}

// runEM is the guarded EM iteration loop shared by all four engines: one EM
// iteration per round of the shared round driver (internal/rounds), which
// owns the interrupt polls, checkpoints, driver-crash injection, and the
// resume prologue. With opt.Resume set, em must have been built from the
// snapshot's mean and ss1; the driver validates and restores the rest.
func runEM(em *emDriver, opt Options, eng emEngine, res *Result) error {
	cl := eng.cluster()
	drv := &rounds.Driver{
		Checkpoint: opt.Checkpoint, Resume: opt.Resume, Faults: opt.Faults,
		Incarnation: opt.Incarnation, RecoveredSeconds: opt.RecoveredSeconds,
		Interrupt: opt.Interrupt, Tracer: opt.Tracer, Cluster: cl, Metrics: &res.Metrics,
	}
	s := &emStep{em: em, opt: opt, eng: eng, res: res, drv: drv}
	if err := drv.Run(s, em.n, em.dims, em.d, opt.Seed, opt.MaxIter); err != nil {
		return err
	}
	res.Components = em.c
	res.SS = em.ss
	res.Iterations = len(res.History)
	if cl != nil {
		res.Metrics = cl.Metrics()
		res.Phases = cluster.Summarize(cl.PhaseLog(), cl.Config())
	}
	return nil
}

// emStep adapts one engine's EM iteration to the round driver.
type emStep struct {
	em  *emDriver
	opt Options
	eng emEngine
	res *Result
	drv *rounds.Driver
}

// Done is the convergence check. It runs at the top of the round, so a run
// resumed from a snapshot taken at its converged iteration stops immediately
// instead of iterating past the uninterrupted run.
func (s *emStep) Done() bool { return s.opt.converged(s.res.History) }

// Round is one guarded EM iteration: prepare → pass → update → ss3 →
// finishVariance, then a non-finite scan of the model state and divergence
// detection with rollback to the best snapshot. The iteration span brackets
// exactly the work of the iteration, including its checkpoint write, on
// every exit path.
func (s *emStep) Round(iter int) (stop bool, err error) {
	em, opt, eng, res := s.em, s.opt, s.eng, s.res
	tr := opt.Tracer
	if tr != nil {
		tr.Begin("iteration", trace.KindIteration, trace.I("iter", int64(iter)))
		defer func() {
			if err != nil {
				tr.End(trace.I("aborted", 1))
				return
			}
			last := res.History[len(res.History)-1]
			tr.End(trace.F("err", last.Err), trace.F("ss", last.SS))
		}()
	}
	if err := em.prepare(); err != nil {
		return false, err
	}
	eng.prepared(em)
	sums, err := eng.pass(em)
	if err != nil {
		return false, err
	}
	cNew, err := em.update(sums)
	if err != nil {
		return false, err
	}
	eng.solved(em, cNew)
	ss3raw, err := eng.ss3(em, cNew)
	if err != nil {
		return false, err
	}
	em.finishVariance(ss3raw)
	if err := em.checkFinite(iter); err != nil {
		return false, err
	}

	e := eng.reconErr(em)
	stat := IterationStat{
		Iter:         iter,
		Err:          e,
		Accuracy:     rounds.Accuracy(opt.IdealError, e),
		SS:           em.ss,
		Ridge:        em.lastRidge,
		RidgeRetries: em.iterRidgeRetries,
	}
	em.iterRidgeRetries = 0
	if cl := eng.cluster(); cl != nil {
		stat.SimSeconds = cl.Metrics().SimSeconds
	}
	em.observeDivergence(&stat, opt, res.History)
	res.History = append(res.History, stat)
	if tr != nil {
		tr.IterationDone(trace.Iteration{
			Iter: stat.Iter, Err: stat.Err, Accuracy: stat.Accuracy, SS: stat.SS,
			SimSeconds: stat.SimSeconds, Ridge: stat.Ridge,
			RidgeRetries: stat.RidgeRetries, Rollback: stat.Rollback,
		})
	}
	return false, s.drv.Commit(iter)
}

// checkFinite scans the model state after an iteration. EM cannot recover
// once NaN/Inf enters C or ss — every later iteration is poisoned — so the
// loop fails fast with iteration context instead of running to MaxIter and
// returning garbage.
func (em *emDriver) checkFinite(iter int) error {
	for _, v := range em.c.Data {
		// v != v catches NaN; the comparisons catch ±Inf without math.Abs.
		if v != v || v > maxFinite || v < -maxFinite {
			return &BreakdownError{Iter: iter, Quantity: "components"}
		}
	}
	if em.ss != em.ss || em.ss > maxFinite || em.ss < 0 {
		return &BreakdownError{Iter: iter, Quantity: "noise variance"}
	}
	return nil
}

const maxFinite = 1.7976931348623157e308 // math.MaxFloat64, inlined for the hot scan

// observeDivergence updates the divergence guard after an iteration: the
// rising-error counter, the best-model snapshot, and — when the error has
// risen DivergeWindow consecutive iterations — the rollback. A rollback
// restores the best components/variance seen so far and escalates the
// standing ridge applied to subsequent M-step solves, damping the update
// that caused the divergence; the iteration's stat keeps the diverged error
// (it is what the run actually produced) with Rollback set.
func (em *emDriver) observeDivergence(stat *IterationStat, opt Options, hist []IterationStat) {
	if opt.DivergeWindow <= 0 {
		return
	}
	if len(hist) > 0 && stat.Err > hist[len(hist)-1].Err {
		em.rising++
	} else {
		em.rising = 0
	}
	if em.haveBest && em.rising >= opt.DivergeWindow {
		copy(em.c.Data, em.bestC.Data)
		em.ss = em.bestSS
		em.ridgeLevel++
		em.rising = 0
		stat.Rollback = true
		return
	}
	if !em.haveBest || stat.Err < em.bestErr {
		em.haveBest = true
		em.bestErr = stat.Err
		em.bestSS = em.ss
		em.bestIter = stat.Iter
		copy(em.bestC.Data, em.c.Data)
	}
}

// ridgeScale is the problem-relative unit of ridge regularization: the mean
// diagonal magnitude of the matrix being stabilized, with a floor of 1 so a
// pathological all-zero matrix still gets a non-zero ridge.
func ridgeScale(a *matrix.Dense) float64 {
	var tr float64
	for i := 0; i < a.R; i++ {
		v := a.Data[i*a.C+i]
		if v < 0 {
			v = -v
		}
		tr += v
	}
	s := tr / float64(a.R)
	if !(s > 0) || s > maxFinite {
		return 1
	}
	return s
}

// pow10 is an exact-loop 10^k for small non-negative k (deterministic, no
// libm dependency in the bit-identity path).
func pow10(k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v *= 10
	}
	return v
}

func addDiag(a *matrix.Dense, lam float64) {
	for i := 0; i < a.R; i++ {
		a.Data[i*a.C+i] += lam
	}
}

// solveGuarded is the guarded M-step solve xtx·Cᵀ = ytxᵀ into dst. The
// standing ridge from divergence rollbacks (level ≥ 1) is applied up front;
// a solve that still returns ErrSingular is retried with a deterministic
// escalating reactive ridge, bounded by maxRidgeRetries, every retry counted
// into the iteration's History entry. xtx is driver-owned scratch and is
// mutated by the ridge additions; SolveSPDInto itself never writes to it.
func (em *emDriver) solveGuarded(xtx, ytx, dst *matrix.Dense, ws *matrix.SPDWorkspace) error {
	em.lastRidge = 0
	if em.ridgeLevel > 0 {
		lam := ridgeScale(xtx) * 1e-6 * pow10(em.ridgeLevel-1)
		addDiag(xtx, lam)
		em.lastRidge = lam
	}
	base := 0.0
	for attempt := 0; ; attempt++ {
		err := matrix.SolveSPDInto(xtx, ytx, dst, ws)
		if err == nil {
			return nil
		}
		if !errors.Is(err, matrix.ErrSingular) || attempt >= maxRidgeRetries {
			return fmt.Errorf("ppca: XtX solve failed after %d ridge retries: %w (%w)", attempt, err, ErrNumericalBreakdown)
		}
		if base == 0 {
			base = ridgeScale(xtx) * 1e-10
		}
		lam := base * pow10(attempt)
		addDiag(xtx, lam)
		em.lastRidge += lam
		em.iterRidgeRetries++
	}
}

// Snapshot assembles the driver's boundary state after iteration iter.
func (s *emStep) Snapshot(iter int) *checkpoint.Snapshot {
	em := s.em
	snap := &checkpoint.Snapshot{
		Iter: iter,
		N:    em.n, Dims: em.dims, D: em.d, Seed: s.opt.Seed,
		FaultEpoch: s.eng.faultEpoch(),
		SS:         em.ss, SS1: em.ss1,
		Mean: em.mean, C: em.c,
		RidgeLevel: em.ridgeLevel, Rising: em.rising,
	}
	if em.haveBest {
		snap.Best = &checkpoint.BestState{Iter: em.bestIter, Err: em.bestErr, SS: em.bestSS, C: em.bestC}
	}
	snap.History = make([]checkpoint.HistoryEntry, len(s.res.History))
	for i, h := range s.res.History {
		snap.History[i] = checkpoint.HistoryEntry{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SS: h.SS,
			SimSeconds: h.SimSeconds, Ridge: h.Ridge,
			RidgeRetries: h.RidgeRetries, Rollback: h.Rollback,
		}
	}
	return snap
}

// Restore loads a validated snapshot into the driver: the engine's fault
// cursor, model state, guard state, and the completed history. The mean and
// ss1 are already in place (em was built from the snapshot's).
func (s *emStep) Restore(snap *checkpoint.Snapshot) {
	em := s.em
	s.eng.setFaultEpoch(snap.FaultEpoch)
	copy(em.c.Data, snap.C.Data)
	em.ss = snap.SS
	em.ridgeLevel = snap.RidgeLevel
	em.rising = snap.Rising
	if snap.Best != nil {
		em.haveBest = true
		em.bestErr = snap.Best.Err
		em.bestSS = snap.Best.SS
		em.bestIter = snap.Best.Iter
		if em.bestC == nil {
			em.bestC = matrix.NewDense(em.dims, em.d)
		}
		copy(em.bestC.Data, snap.Best.C.Data)
	}
	s.res.History = s.res.History[:0]
	for _, h := range snap.History {
		s.res.History = append(s.res.History, IterationStat{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SS: h.SS,
			SimSeconds: h.SimSeconds, Ridge: h.Ridge,
			RidgeRetries: h.RidgeRetries, Rollback: h.Rollback,
		})
	}
}
