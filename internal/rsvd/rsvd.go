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
//   - Checkpoint/resume at sketch-round granularity: the rounds run on the
//     shared round driver (internal/rounds), so with a CheckpointSpec armed
//     the best-of-rounds state (components, singular values, error) is
//     snapshotted after each round and an injected driver crash resumes to
//     a bit-identical final model.
//
// RunRounds is the family's round loop; the Mahout baseline in
// internal/ssvd runs its own pipeline through it as a RoundEngine.
package rsvd

import (
	"errors"
	"fmt"
	"math"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/matrix"
	"spca/internal/rounds"
	"spca/internal/trace"
)

// CheckpointSpec configures periodic driver snapshots at sketch-round
// granularity; see rounds.CheckpointSpec. The zero value disables it.
type CheckpointSpec = rounds.CheckpointSpec

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

// RoundEngine is the per-platform part of a sketch fit: Round runs one full
// sketch round of width k, producing candidate components (D x d) and
// singular values. FaultEpoch and SetFaultEpoch expose the engine's
// fault-decision cursor to checkpoints.
type RoundEngine interface {
	Round(round, k int) (*matrix.Dense, []float64, error)
	FaultEpoch() int64
	SetFaultEpoch(epoch int64)
}

// RunRounds runs eng's sketch rounds on the shared round driver until
// MaxRounds or TargetAccuracy, keeping the best-of-rounds model on the
// sampled reconstruction error. mean is the column mean of rows: the
// output of the caller's mean pass, or opt.Resume's snapshot mean.
func RunRounds(cl *cluster.Cluster, opt Options, rows []matrix.SparseVector, dims int, mean []float64, eng RoundEngine) (*Result, error) {
	res := &Result{Mean: mean}
	s := &sketchStep{
		opt: opt, eng: eng, cl: cl, res: res,
		k:    opt.sketchWidth(len(rows), dims),
		rows: rows, dims: dims,
		sample:  matrix.SampleIdx(matrix.NewRNG(matrix.DeriveSeed(opt.Seed, "sample", 0)), len(rows), opt.sampleRows()),
		recon:   matrix.NewReconScratch(dims, opt.Components),
		bestErr: math.Inf(1),
	}
	s.drv = &rounds.Driver{
		Checkpoint: opt.Checkpoint, Resume: opt.Resume, Faults: opt.Faults,
		Incarnation: opt.Incarnation, RecoveredSeconds: opt.RecoveredSeconds,
		Interrupt: opt.Interrupt, Tracer: opt.Tracer, Cluster: cl,
	}
	if err := s.drv.Run(s, len(rows), dims, opt.Components, opt.Seed, opt.maxRounds()); err != nil {
		return nil, err
	}
	res.Components = s.bestW
	res.Singular = s.bestSing
	res.Iterations = len(res.History)
	res.Metrics = cl.Metrics()
	res.Phases = cluster.Summarize(cl.PhaseLog(), cl.Config())
	return res, nil
}

// sketchStep adapts one sketch round to the round driver: best-of-rounds
// selection on the sampled error metric (shared with the ssvd baseline, so
// both grade themselves on the same rows), history, and tracing. The error
// sample uses DeriveSeed's "sample" stream.
type sketchStep struct {
	opt    Options
	eng    RoundEngine
	cl     *cluster.Cluster
	res    *Result
	drv    *rounds.Driver
	k      int
	rows   []matrix.SparseVector
	dims   int
	sample []int
	recon  *matrix.ReconScratch

	bestErr  float64
	bestW    *matrix.Dense
	bestSing []float64
}

// Done is false: a sketch run stops through Round's stop result.
func (s *sketchStep) Done() bool { return false }

func (s *sketchStep) Round(round int) (bool, error) {
	opt := s.opt
	tr := opt.Tracer
	if tr != nil {
		tr.Begin("round", trace.KindIteration, trace.I("round", int64(round)))
		defer tr.End()
	}
	w, sing, err := s.eng.Round(round, s.k)
	if err != nil {
		return false, err
	}
	// Best-of-rounds on the sampled reconstruction error (§2.3's
	// accuracy/compute trade).
	if e := s.recon.Error(s.rows, s.res.Mean, w, s.sample); e < s.bestErr {
		s.bestErr = e
		s.bestW = w
		s.bestSing = sing
	}
	acc := rounds.Accuracy(opt.IdealError, s.bestErr)
	stat := IterationStat{
		Iter: round, Err: s.bestErr, Accuracy: acc, SimSeconds: s.cl.Metrics().SimSeconds,
	}
	s.res.History = append(s.res.History, stat)
	if tr != nil {
		tr.IterationDone(trace.Iteration{
			Iter: stat.Iter, Err: stat.Err, Accuracy: stat.Accuracy, SimSeconds: stat.SimSeconds,
		})
	}
	if err := s.drv.Commit(round); err != nil {
		return false, err
	}
	return opt.TargetAccuracy > 0 && acc >= opt.TargetAccuracy, nil
}

// Snapshot assembles the best-of-rounds boundary state after round.
func (s *sketchStep) Snapshot(round int) *checkpoint.Snapshot {
	opt := s.opt
	snap := &checkpoint.Snapshot{
		Iter: round,
		N:    len(s.rows), Dims: s.dims, D: opt.Components, Seed: opt.Seed,
		FaultEpoch: s.eng.FaultEpoch(),
		SS:         s.bestErr,
		Mean:       s.res.Mean,
		C:          s.bestW,
		Singular:   s.bestSing,
	}
	snap.History = make([]checkpoint.HistoryEntry, len(s.res.History))
	for i, h := range s.res.History {
		snap.History[i] = checkpoint.HistoryEntry{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SimSeconds: h.SimSeconds,
		}
	}
	return snap
}

// Restore loads a validated snapshot: the engine's fault cursor, the
// best-of-rounds state, and the history (the mean is already in place).
func (s *sketchStep) Restore(snap *checkpoint.Snapshot) {
	s.eng.SetFaultEpoch(snap.FaultEpoch)
	s.bestErr = snap.SS
	s.bestW = snap.C
	s.bestSing = snap.Singular
	s.res.History = s.res.History[:0]
	for _, h := range snap.History {
		s.res.History = append(s.res.History, IterationStat{
			Iter: h.Iter, Err: h.Err, Accuracy: h.Accuracy, SimSeconds: h.SimSeconds,
		})
	}
}
