// Package rsvd implements the randomized-sketch PCA engine family (§2.3's
// modern competitor to iterative EM): distributed randomized SVD in the
// style of Li/Kluger/Tygert — a seeded Gaussian range finder with QR
// re-orthonormalized power iterations and a small SVD on the driver — on the
// MapReduce engine (FitMapReduce), and the communication-optimal distributed
// variant of Balcan et al. — every partition computes a local sketch and the
// driver merges the stacked projections — on the Spark-like engine
// (FitSpark).
//
// Both engines inherit the house invariants from the shared machinery:
//
//   - Deterministic seeding: every random draw derives from Options.Seed via
//     matrix.DeriveSeed with a named stream ("rsvd/omega" per round,
//     "sample" for the error metric), so no two (stream, round) pairs can
//     collide and the fitted model is bit-identical across sequential,
//     parallel, and fault-injected runs.
//   - Zero steady-state allocations in mappers: per-task scratch is sized by
//     the engine's split/partition count, allocated on the first round, and
//     recycled through freelists afterwards.
//   - Exact tracing: every charged phase flows through the cluster, so leaf
//     trace spans sum to the run Metrics bit for bit.
//   - Checkpoint/resume at sketch-round granularity: with a CheckpointSpec
//     armed, the best-of-rounds state (components, singular values, error)
//     is snapshotted after each round and an injected driver crash resumes
//     to a bit-identical final model.
package rsvd

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// CheckpointSpec configures periodic driver snapshots at sketch-round
// granularity. The zero value disables checkpointing. (This mirrors
// ppca.CheckpointSpec; rsvd sits beside ppca in the import graph, so it
// carries its own copy.)
type CheckpointSpec struct {
	// Interval snapshots after every Interval-th completed round.
	Interval int
	// Dir receives the snapshot files.
	Dir string
	// Keep bounds retained snapshot generations after each write: 0 means
	// checkpoint.DefaultKeep, negative means unlimited.
	Keep int
}

// Enabled reports whether checkpointing is armed.
func (c CheckpointSpec) Enabled() bool { return c.Interval > 0 && c.Dir != "" }

// Options configures a randomized-sketch PCA run.
type Options struct {
	// Components is d, the number of principal components.
	Components int
	// Oversample adds extra random projections beyond d (Halko's p).
	// Default 10.
	Oversample int
	// PowerIterations is q, the number of QR re-orthonormalized power
	// iterations refining the range basis. Default 1 — one refinement is
	// what lets the sketch engines beat Mahout's q=0 accuracy plateau.
	PowerIterations int
	// MaxRounds bounds sketch re-draws; each round redraws Ω and the best
	// model (lowest sampled reconstruction error) is kept. Default 1: a
	// randomized sketch is a one-to-few-pass algorithm.
	MaxRounds int
	// TargetAccuracy stops re-drawing once this fraction of ideal accuracy
	// is reached (requires IdealError).
	TargetAccuracy float64
	// IdealError is the exact rank-d PCA error on the sampled rows.
	IdealError float64
	// SampleRows bounds the error-metric sample (default 256).
	SampleRows int
	// Seed drives every random draw through matrix.DeriveSeed.
	Seed uint64
	// Tracer, when non-nil, receives deterministic spans. Nil disables
	// tracing.
	Tracer *trace.Tracer

	// Checkpoint arms round-granularity snapshots (see CheckpointSpec).
	Checkpoint CheckpointSpec
	// Incarnation is the 0-based driver incarnation (used by the fault
	// plan's driver-crash schedule and the resume accounting).
	Incarnation int
	// RecoveredSeconds charges the simulated time lost to the previous
	// incarnation's crash.
	RecoveredSeconds float64
	// Resume, when non-nil, restores the run from a snapshot instead of
	// starting from scratch.
	Resume *checkpoint.Snapshot
	// Faults injects deterministic driver crashes (task-level faults are
	// armed on the engine / context by the caller).
	Faults *cluster.FaultPlan
	// Interrupt, when non-nil, is polled at every round boundary (and by the
	// engines at phase boundaries via the cluster). On cancel/deadline/stall
	// the round loop stops at the boundary, flushes a final snapshot when
	// checkpointing is armed, and returns a *cluster.AbortError.
	Interrupt *cluster.Interrupt
}

// DefaultOptions returns the paper-flavoured defaults for d components.
func DefaultOptions(d int) Options {
	return Options{
		Components:      d,
		Oversample:      10,
		PowerIterations: 1,
		MaxRounds:       1,
		SampleRows:      256,
		Seed:            42,
	}
}

func (o Options) sampleRows() int {
	if o.SampleRows <= 0 {
		return 256
	}
	return o.SampleRows
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return 1
	}
	return o.MaxRounds
}

func (o Options) validate(n, dims int) error {
	if o.Components <= 0 {
		return errors.New("rsvd: Components must be positive")
	}
	if n == 0 {
		return errors.New("rsvd: empty input")
	}
	if o.Components > dims {
		return fmt.Errorf("rsvd: Components %d exceeds dimensionality %d", o.Components, dims)
	}
	if o.PowerIterations < 0 {
		return errors.New("rsvd: negative PowerIterations")
	}
	return nil
}

// sketchWidth is k = d + oversample, clamped to the problem shape.
func (o Options) sketchWidth(n, dims int) int {
	k := o.Components + o.Oversample
	if k > dims {
		k = dims
	}
	if k > n {
		k = n
	}
	return k
}

// IterationStat records accuracy after each sketch round.
type IterationStat struct {
	Iter       int
	Err        float64
	Accuracy   float64
	SimSeconds float64
}

// Result is the output of a randomized-sketch PCA run.
type Result struct {
	// Components holds the d principal directions as columns (D x d).
	Components *matrix.Dense
	// Singular holds the corresponding singular values of the centered data.
	Singular []float64
	// Mean is the column-mean vector computed by the fit's first pass.
	Mean []float64
	// Iterations counts sketch rounds (initial pass = 1).
	Iterations int
	History    []IterationStat
	Metrics    cluster.Metrics
	// Phases is the per-phase cost breakdown aggregated from the phase log.
	Phases []cluster.PhaseSummary
}

// roundEngine is the per-platform part of a fit: one full sketch round
// producing candidate components and singular values. faultEpoch reports the
// engine's fault-decision cursor for checkpointing.
type roundEngine interface {
	round(round, k int) (*matrix.Dense, []float64, error)
	faultEpoch() int64
}

// driver owns the platform-independent round loop: best-of-rounds selection,
// the sampled error metric, history/tracing, checkpoint writes, and injected
// driver crashes.
type driver struct {
	cl      *cluster.Cluster
	opt     Options
	n, dims int
	k       int
	mean    []float64
	rows    []matrix.SparseVector
	sample  []int
	recon   *reconScratch

	bestErr  float64
	bestW    *matrix.Dense
	bestSing []float64
}

func newDriver(cl *cluster.Cluster, opt Options, rows []matrix.SparseVector, dims int) *driver {
	return &driver{
		cl: cl, opt: opt, n: len(rows), dims: dims,
		k:       opt.sketchWidth(len(rows), dims),
		rows:    rows,
		sample:  sampleIdx(len(rows), opt.sampleRows(), opt.Seed),
		recon:   newReconScratch(dims, opt.Components),
		bestErr: math.Inf(1),
	}
}

// restore loads a validated snapshot: best-of-rounds state, mean, and
// history. The caller restores cluster metrics and the engine fault epoch.
func (dr *driver) restore(snap *checkpoint.Snapshot, res *Result) {
	dr.mean = snap.Mean
	dr.bestErr = snap.SS
	dr.bestW = snap.C
	dr.bestSing = snap.Singular
	res.History = res.History[:0]
	for _, h := range snap.History {
		res.History = append(res.History, IterationStat{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SimSeconds: h.SimSeconds,
		})
	}
}

// run executes sketch rounds until MaxRounds or TargetAccuracy, starting
// after the resumed round when a snapshot was restored.
func (dr *driver) run(eng roundEngine, res *Result) error {
	opt := dr.opt
	start := 1
	if opt.Resume != nil {
		start = opt.Resume.Iter + 1
	}
	for round := start; round <= opt.maxRounds(); round++ {
		// Entry poll: a pre-canceled context (or one canceled between rounds)
		// is observed here, with round-1 rounds completed.
		if cause := opt.Interrupt.Err(); cause != nil {
			return dr.abortRun(round-1, cause, eng, res, true)
		}
		stop, err := dr.runRound(eng, res, round)
		if err != nil {
			if cluster.IsInterrupt(err) {
				// An engine phase unwound mid-round: the round is abandoned
				// (its jobs partly charged, the engine's fault cursor
				// mid-stream), so no fresh snapshot is written — resume
				// redoes the round from the last periodic one.
				return dr.abortRun(round-1, err, eng, res, false)
			}
			return err
		}
		if stop {
			break
		}
		// Boundary poll: the deterministic abort point between rounds.
		if cause := opt.Interrupt.Err(); cause != nil {
			return dr.abortRun(round, cause, eng, res, true)
		}
		opt.Interrupt.Progress()
	}
	res.Components = dr.bestW
	res.Singular = dr.bestSing
	res.Mean = dr.mean
	res.Iterations = len(res.History)
	res.Metrics = dr.cl.Metrics()
	res.Phases = cluster.Summarize(dr.cl.PhaseLog(), dr.cl.Config())
	return nil
}

func (dr *driver) runRound(eng roundEngine, res *Result, round int) (bool, error) {
	opt := dr.opt
	tr := opt.Tracer
	if tr != nil {
		tr.Begin("round", trace.KindIteration, trace.I("round", int64(round)))
		defer tr.End()
	}
	w, sing, err := eng.round(round, dr.k)
	if err != nil {
		return false, err
	}
	// Best-of-rounds on the sampled reconstruction error (§2.3's
	// accuracy/compute trade, shared with the ssvd baseline's metric).
	e := dr.recon.reconstructionError(dr.rows, dr.mean, w, dr.sample)
	if e < dr.bestErr {
		dr.bestErr = e
		dr.bestW = w
		dr.bestSing = sing
	}
	acc := accuracyOf(opt, dr.bestErr)
	stat := IterationStat{
		Iter: round, Err: dr.bestErr, Accuracy: acc, SimSeconds: dr.cl.Metrics().SimSeconds,
	}
	res.History = append(res.History, stat)
	if tr != nil {
		tr.IterationDone(trace.Iteration{
			Iter: stat.Iter, Err: stat.Err, Accuracy: stat.Accuracy, SimSeconds: stat.SimSeconds,
		})
	}
	if opt.Checkpoint.Enabled() && round%opt.Checkpoint.Interval == 0 {
		if err := dr.writeCheckpoint(eng, res, round); err != nil {
			return false, err
		}
	}
	if opt.Faults.DriverCrashAt(round, opt.Incarnation) {
		crash := &cluster.DriverCrashError{
			Iter: round, Incarnation: opt.Incarnation, SimSeconds: dr.cl.Metrics().SimSeconds,
		}
		if tr != nil {
			tr.Event("driver-crash",
				trace.I("iter", int64(round)), trace.I("incarnation", int64(opt.Incarnation)))
		}
		return false, crash
	}
	return opt.TargetAccuracy > 0 && acc >= opt.TargetAccuracy, nil
}

// writeCheckpoint charges and writes one round-granularity snapshot. As in
// the EM driver, the checkpoint cost is charged BEFORE metrics are captured,
// so a resumed run's restored clock already includes the write it resumes
// from.
func (dr *driver) writeCheckpoint(eng roundEngine, res *Result, round int) error {
	opt := dr.opt
	snap := dr.buildSnapshot(eng, res, round)
	dr.cl.ChargeCheckpoint(snap.CostBytes()) // emits the checkpoint span itself
	snap.Metrics = dr.cl.Metrics()
	if _, err := checkpoint.Save(opt.Checkpoint.Dir, snap); err != nil {
		return fmt.Errorf("rsvd: writing checkpoint at round %d: %w", round, err)
	}
	// Injected storage corruption damages the file only — driver state and
	// the simulated clock are untouched, so the run continues as if the write
	// succeeded and only a later resume discovers the bad generation.
	if opt.Faults.SnapshotCorrupt(round) {
		torn := opt.Faults.SnapshotTorn(round)
		off := opt.Faults.CorruptOffset("ckpt", round, snap.Bytes)
		kind := int64(0)
		if torn {
			kind = 1
		}
		opt.Tracer.Event("checkpoint-corrupted",
			trace.I("iter", int64(round)), trace.I("torn", kind), trace.I("offset", off))
		if err := checkpoint.Corrupt(filepath.Join(opt.Checkpoint.Dir, checkpoint.FileName(round)), torn, off); err != nil {
			return fmt.Errorf("rsvd: injecting checkpoint fault at round %d: %w", round, err)
		}
	}
	if opt.Checkpoint.Keep >= 0 {
		if err := checkpoint.Prune(opt.Checkpoint.Dir, opt.Checkpoint.Keep); err != nil {
			return fmt.Errorf("rsvd: pruning checkpoints at round %d: %w", round, err)
		}
	}
	return nil
}

// buildSnapshot assembles the best-of-rounds boundary state into a snapshot
// (metrics are filled in by the caller, which decides whether the write is
// charged to the simulated cluster first).
func (dr *driver) buildSnapshot(eng roundEngine, res *Result, round int) *checkpoint.Snapshot {
	opt := dr.opt
	snap := &checkpoint.Snapshot{
		Iter: round,
		N:    dr.n, Dims: dr.dims, D: opt.Components, Seed: opt.Seed,
		FaultEpoch: eng.faultEpoch(),
		SS:         dr.bestErr,
		Mean:       dr.mean,
		C:          dr.bestW,
		Singular:   dr.bestSing,
	}
	snap.History = make([]checkpoint.HistoryEntry, len(res.History))
	for i, h := range res.History {
		snap.History[i] = checkpoint.HistoryEntry{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SimSeconds: h.SimSeconds,
		}
	}
	return snap
}

// abortRun converts an observed interrupt into a resumable *cluster.AbortError.
// Same determinism contract as the EM driver's counterpart (internal/ppca):
// only a boundary abort flushes a fresh snapshot, and the flush charges
// nothing to the simulated cluster.
func (dr *driver) abortRun(last int, cause error, eng roundEngine, res *Result, atBoundary bool) error {
	opt := dr.opt
	ab := &cluster.AbortError{Iter: last, Cause: cause, SimSeconds: dr.cl.Metrics().SimSeconds}
	if errors.Is(cause, cluster.ErrStalled) {
		ab.Diagnostic = dr.cl.StallDiagnostic()
	}
	if opt.Checkpoint.Enabled() {
		switch {
		case last > 0 && last%opt.Checkpoint.Interval == 0:
			ab.Checkpointed = true
		case atBoundary && last > 0:
			if err := dr.writeFinalCheckpoint(eng, res, last); err != nil {
				opt.Tracer.Event("final-checkpoint-failed", trace.I("iter", int64(last)))
			} else {
				ab.Checkpointed = true
			}
		default:
			ab.Checkpointed = last >= opt.Checkpoint.Interval || opt.Resume != nil
		}
	}
	ck := int64(0)
	if ab.Checkpointed {
		ck = 1
	}
	opt.Tracer.Event(cluster.AbortEventName(cause), trace.I("iter", int64(last)), trace.I("checkpointed", ck))
	return ab
}

// Final-snapshot flush retry bounds (real time; the simulated clock is never
// involved in abort handling).
const (
	finalSaveRetries = 3
	finalSaveBackoff = 25 * time.Millisecond
)

// writeFinalCheckpoint flushes an out-of-interval snapshot at an abort
// boundary, charging nothing to the simulated cluster: the snapshot's
// embedded metrics equal the boundary state exactly, so a resume continues
// bit-identically to an uninterrupted run. Real-I/O failures retry with
// exponential backoff.
func (dr *driver) writeFinalCheckpoint(eng roundEngine, res *Result, round int) error {
	opt := dr.opt
	snap := dr.buildSnapshot(eng, res, round)
	snap.Metrics = dr.cl.Metrics()
	var err error
	backoff := finalSaveBackoff
	for attempt := 0; attempt <= finalSaveRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if _, err = checkpoint.Save(opt.Checkpoint.Dir, snap); err == nil {
			opt.Tracer.Event("final-checkpoint",
				trace.I("iter", int64(round)), trace.I("retries", int64(attempt)))
			if opt.Checkpoint.Keep >= 0 {
				if perr := checkpoint.Prune(opt.Checkpoint.Dir, opt.Checkpoint.Keep); perr != nil {
					return fmt.Errorf("rsvd: pruning checkpoints at abort: %w", perr)
				}
			}
			return nil
		}
	}
	return fmt.Errorf("rsvd: final checkpoint at round %d failed after %d retries: %w",
		round, finalSaveRetries, err)
}

// accuracyOf converts an error into a fraction of ideal accuracy
// (IdealError/err, matching the sPCA metric so traces are comparable).
func accuracyOf(o Options, err float64) float64 {
	if o.IdealError <= 0 {
		return 0
	}
	if err <= o.IdealError {
		return 1
	}
	return o.IdealError / err
}

// sampleIdx draws the sorted error-metric row sample. The "sample" stream of
// DeriveSeed matches the ssvd baseline's, so both engines grade themselves
// on the same rows.
func sampleIdx(n, want int, seed uint64) []int {
	if want >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	perm := matrix.NewRNG(matrix.DeriveSeed(seed, "sample", 0)).Perm(n)
	idx := perm[:want]
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// reconScratch holds the error-metric buffers, allocated once per fit and
// reused by every round's reconstructionError call.
type reconScratch struct {
	xi, wm, tNum, tDen []float64
}

func newReconScratch(dims, d int) *reconScratch {
	return &reconScratch{
		xi:   make([]float64, d),
		wm:   make([]float64, d),
		tNum: make([]float64, dims),
		tDen: make([]float64, dims),
	}
}

// reconstructionError mirrors the sPCA metric: sampled relative 1-norm of
// Y - ((Yc·W)·Wᵀ + Ym) for orthonormal W.
func (rs *reconScratch) reconstructionError(y []matrix.SparseVector, mean []float64, w *matrix.Dense, rows []int) float64 {
	var num, den float64
	xi := rs.xi[:w.C]
	wm := w.MulVecTInto(mean, rs.wm[:w.C])
	tNum, tDen := rs.tNum, rs.tDen
	for _, i := range rows {
		row := y[i]
		for t := range xi {
			xi[t] = -wm[t]
		}
		for t, j := range row.Indices {
			matrix.AXPY(row.Values[t], w.Row(j), xi)
		}
		matrix.ReconTerms(row, mean, w, xi, tNum, tDen)
		for j := range tNum {
			num += tNum[j]
			den += tDen[j]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
