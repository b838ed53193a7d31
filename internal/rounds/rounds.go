// Package rounds is the resumable round driver every iterative engine runs
// on: sPCA's EM iterations (internal/ppca) and the randomized-sketch rounds
// (internal/rsvd, and through it the Mahout baseline in internal/ssvd). In
// each round the driver reduces one distributed pass into a small model; this
// package owns everything around that reduction that must behave identically
// for every engine:
//
//   - the entry and boundary interrupt polls and the stall-watchdog Progress
//     tick between rounds;
//   - the resumable *cluster.AbortError, including whether a resume-usable
//     snapshot is on durable storage;
//   - the periodic checkpoint write (charged to the simulated cluster, or to
//     the single-machine Result metrics), injected snapshot corruption, and
//     generation pruning;
//   - the uncharged final snapshot flushed at an abort boundary, with real
//     time retry and backoff;
//   - scheduled driver-crash injection;
//   - the resume prologue: snapshot validation, clock restore, and the
//     out-of-band restart charge.
//
// An engine supplies the round itself as a Step. See DESIGN.md "Durability &
// numerical guards" for the determinism contract.
package rounds

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/trace"
)

// CheckpointSpec configures periodic driver snapshots. The zero value
// disables checkpointing entirely: no files, no simulated charges, and runs
// stay byte-identical to a build without the subsystem.
type CheckpointSpec struct {
	// Interval writes a snapshot after every Interval-th completed round.
	Interval int
	// Dir is the directory snapshot files are written to (created if absent).
	Dir string
	// Keep bounds how many snapshot generations are retained after each
	// write: 0 means checkpoint.DefaultKeep, negative means unlimited.
	// Keeping more than one generation is what lets a resume fall back past
	// a corrupt newest snapshot.
	Keep int
}

// Enabled reports whether snapshots will be written.
func (c CheckpointSpec) Enabled() bool { return c.Interval > 0 && c.Dir != "" }

// Step is one engine's round. Rounds are numbered from 1.
type Step interface {
	// Done reports that the run already met its stop condition. It is
	// checked at the top of every round, before the entry poll, so a run
	// resumed from a snapshot taken at its converged round stops at once.
	Done() bool
	// Round runs round i inside its own trace span. Once the round's model
	// is final and its history entry recorded it must return the error of
	// Driver.Commit(i), still inside the span; stop ends the run
	// successfully after round i, skipping the boundary poll.
	Round(i int) (stop bool, err error)
	// Snapshot assembles the boundary state after round i, including the
	// engine's fault epoch. The driver fills in Metrics.
	Snapshot(i int) *checkpoint.Snapshot
	// Restore loads a validated snapshot: model state, history, and the
	// engine's fault epoch.
	Restore(snap *checkpoint.Snapshot)
}

// Driver runs a Step's rounds under one durability policy. Its fields mirror
// the engines' Options; Cluster is nil on a single machine, in which case
// Metrics (the fit's Result.Metrics) carries the checkpoint and restart
// accounting instead.
type Driver struct {
	Checkpoint  CheckpointSpec
	Resume      *checkpoint.Snapshot // snapshot this incarnation resumes from
	Faults      *cluster.FaultPlan   // driver-crash and snapshot-corruption schedule
	Incarnation int                  // 0-based driver incarnation
	// RecoveredSeconds is the simulated time the previous incarnation wasted,
	// charged out of band by the resume prologue.
	RecoveredSeconds float64
	Interrupt        *cluster.Interrupt
	Tracer           *trace.Tracer
	Cluster          *cluster.Cluster
	Metrics          *cluster.Metrics

	step Step
}

// Run executes rounds from 1 (or the round after the resumed snapshot) to
// maxRounds. It first runs the resume prologue: with Resume set it validates
// the snapshot against the problem identity, rewinds the clock to it, charges
// the restore out of band, and restores the step; a fresh incarnation after a
// crash only counts the restart.
func (d *Driver) Run(s Step, n, dims, comps int, seed uint64, maxRounds int) error {
	d.step = s
	start := 1
	if snap := d.Resume; snap != nil {
		if err := snap.Validate(n, dims, comps, seed); err != nil {
			return err
		}
		if cl := d.Cluster; cl != nil {
			// Setup this incarnation had to redo before the restore (e.g.
			// re-loading the input RDD) is discarded from the clock by
			// RestoreMetrics and reported as recovery time instead.
			setup := cl.Metrics().SimSeconds
			cl.RestoreMetrics(snap.Metrics)
			cl.ChargeDriverRestore(snap.CostBytes(), d.RecoveredSeconds+setup)
		} else {
			*d.Metrics = snap.Metrics
			d.Metrics.DriverRestarts++
		}
		s.Restore(snap)
		start = snap.Iter + 1
	} else if d.Incarnation > 0 {
		// Restarted from scratch after a crash with no usable snapshot.
		if d.Cluster != nil {
			d.Cluster.ChargeDriverRestore(0, d.RecoveredSeconds)
		} else {
			d.Metrics.DriverRestarts++
		}
	}
	for i := start; i <= maxRounds; i++ {
		if s.Done() {
			break
		}
		// Entry poll: a context canceled before (or between) rounds is
		// observed here, with i-1 rounds completed.
		if cause := d.Interrupt.Err(); cause != nil {
			return d.abort(i-1, cause, true)
		}
		stop, err := s.Round(i)
		if err != nil {
			if cluster.IsInterrupt(err) {
				// An engine phase caught the interrupt mid-round. The round
				// is abandoned — its state may be mid-update, so no fresh
				// snapshot is written; a resume redoes it from the last
				// periodic snapshot, deterministically.
				return d.abort(i-1, err, false)
			}
			return err
		}
		if stop {
			break
		}
		// Boundary poll: the round (including its checkpoint and observer
		// callbacks) finished — the deterministic abort point. Checked
		// before Progress so a stall that opened during the round's
		// driver-side tail is still observed.
		if cause := d.Interrupt.Err(); cause != nil {
			return d.abort(i, cause, true)
		}
		d.Interrupt.Progress()
	}
	return nil
}

// Commit ends round i: the periodic checkpoint write when i is on the
// interval, then a scheduled driver crash. Steps call it from Round.
func (d *Driver) Commit(i int) error {
	if d.Checkpoint.Enabled() && i%d.Checkpoint.Interval == 0 {
		if err := d.write(i); err != nil {
			return err
		}
	}
	if d.Faults.DriverCrashAt(i, d.Incarnation) {
		crash := &cluster.DriverCrashError{Iter: i, Incarnation: d.Incarnation}
		if d.Cluster != nil {
			crash.SimSeconds = d.Cluster.Metrics().SimSeconds
		}
		if tr := d.Tracer; tr != nil {
			tr.Event("driver-crash", trace.I("iter", int64(i)), trace.I("incarnation", int64(d.Incarnation)))
		}
		return crash
	}
	return nil
}

// metrics is the accounting a snapshot embeds and an abort reports.
func (d *Driver) metrics() cluster.Metrics {
	if d.Cluster != nil {
		return d.Cluster.Metrics()
	}
	return *d.Metrics
}

// write charges and writes one periodic snapshot. The simulated cost uses
// the modeled binary size (Snapshot.CostBytes), which depends only on the
// state shapes, so the charge is bit-identical between an uninterrupted run
// and a crashed+resumed one. The charge lands before the snapshot's Metrics
// are captured: on resume the clock restores to the post-write value, exactly
// what the uninterrupted run's clock reads going into the next round.
func (d *Driver) write(i int) error {
	snap := d.step.Snapshot(i)
	cost := snap.CostBytes()
	if d.Cluster != nil {
		d.Cluster.ChargeCheckpoint(cost) // emits the checkpoint span itself
	} else {
		d.Metrics.CheckpointBytes += cost
		d.Tracer.Event("checkpoint", trace.I("checkpoint_bytes", cost))
	}
	snap.Metrics = d.metrics()
	if _, err := checkpoint.Save(d.Checkpoint.Dir, snap); err != nil {
		return fmt.Errorf("rounds: writing checkpoint at round %d: %w", i, err)
	}
	if err := d.injectSnapshotFault(i, snap.Bytes); err != nil {
		return fmt.Errorf("rounds: injecting checkpoint fault at round %d: %w", i, err)
	}
	if d.Checkpoint.Keep >= 0 {
		if err := checkpoint.Prune(d.Checkpoint.Dir, d.Checkpoint.Keep); err != nil {
			return fmt.Errorf("rounds: pruning checkpoints at round %d: %w", i, err)
		}
	}
	return nil
}

// injectSnapshotFault damages the just-written snapshot file when the fault
// plan says this generation is the unlucky one: either a torn write
// (truncation, as if the process died mid-flush of a non-atomic writer) or a
// flipped bit at a plan-derived offset. The damage is to the file only — the
// in-memory state and simulated clock are untouched, so the run continues
// exactly as if the write had succeeded, and only a later resume discovers
// (and quarantines) the bad generation.
func (d *Driver) injectSnapshotFault(i int, size int64) error {
	if !d.Faults.SnapshotCorrupt(i) {
		return nil
	}
	torn := d.Faults.SnapshotTorn(i)
	off := d.Faults.CorruptOffset("ckpt", i, size)
	kind := int64(0)
	if torn {
		kind = 1
	}
	d.Tracer.Event("checkpoint-corrupted",
		trace.I("iter", int64(i)), trace.I("torn", kind), trace.I("offset", off))
	return checkpoint.Corrupt(filepath.Join(d.Checkpoint.Dir, checkpoint.FileName(i)), torn, off)
}

// abort converts an observed interrupt into a resumable *cluster.AbortError.
// last is the number of fully completed rounds; atBoundary reports whether
// the step's state is exactly the post-round-last state (true for the Run
// polls, false when an engine phase unwound mid-round). Only a boundary abort
// may flush a fresh snapshot — mid-round state is not a valid model.
func (d *Driver) abort(last int, cause error, atBoundary bool) error {
	ab := &cluster.AbortError{Iter: last, Cause: cause, SimSeconds: d.metrics().SimSeconds}
	if errors.Is(cause, cluster.ErrStalled) {
		ab.Diagnostic = d.Cluster.StallDiagnostic()
	}
	if d.Checkpoint.Enabled() {
		switch {
		case last > 0 && last%d.Checkpoint.Interval == 0:
			// The periodic write at this boundary already covers it (either
			// written this incarnation or the snapshot this run resumed from).
			ab.Checkpointed = true
		case atBoundary && last > 0:
			if err := d.writeFinal(last); err != nil {
				d.Tracer.Event("final-checkpoint-failed", trace.I("iter", int64(last)))
			} else {
				ab.Checkpointed = true
			}
		default:
			// Abandoned round: the newest periodic snapshot (or the one this
			// run resumed from) is the resume point, if any exists.
			ab.Checkpointed = last >= d.Checkpoint.Interval || d.Resume != nil
		}
	}
	ck := int64(0)
	if ab.Checkpointed {
		ck = 1
	}
	d.Tracer.Event(cluster.AbortEventName(cause), trace.I("iter", int64(last)), trace.I("checkpointed", ck))
	return ab
}

// Final-snapshot flush retry bounds. This write is the run's last chance to
// preserve progress before unwinding, so transient real-I/O failures are
// retried with exponential backoff (real time — the simulated clock is
// never involved in abort handling).
const (
	finalSaveRetries = 3
	finalSaveBackoff = 25 * time.Millisecond
)

// writeFinal flushes an out-of-interval snapshot at an abort boundary.
// Unlike the periodic write it charges NOTHING: the uninterrupted run never
// pays for this write, and the snapshot's embedded metrics must equal the
// boundary state exactly so a resume continues bit-identically.
func (d *Driver) writeFinal(i int) error {
	snap := d.step.Snapshot(i)
	snap.Metrics = d.metrics()
	var err error
	backoff := finalSaveBackoff
	for attempt := 0; attempt <= finalSaveRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if _, err = checkpoint.Save(d.Checkpoint.Dir, snap); err == nil {
			d.Tracer.Event("final-checkpoint",
				trace.I("iter", int64(i)), trace.I("retries", int64(attempt)))
			if d.Checkpoint.Keep >= 0 {
				if perr := checkpoint.Prune(d.Checkpoint.Dir, d.Checkpoint.Keep); perr != nil {
					return fmt.Errorf("rounds: pruning checkpoints at abort: %w", perr)
				}
			}
			return nil
		}
	}
	return fmt.Errorf("rounds: final checkpoint at round %d failed after %d retries: %w",
		i, finalSaveRetries, err)
}

// Accuracy converts a sampled reconstruction error into a fraction of ideal
// accuracy, ideal/err: it approaches 1 as the error approaches the exact
// rank-d PCA's, and is 0 when no ideal error is known. Every round engine
// reports and stops on this metric.
func Accuracy(ideal, err float64) float64 {
	if ideal <= 0 {
		return 0
	}
	if err <= ideal {
		return 1
	}
	return ideal / err
}
