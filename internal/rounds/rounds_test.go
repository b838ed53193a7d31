package rounds

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spca/internal/checkpoint"
	"spca/internal/cluster"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// fakeStep is a single-machine Step with no model: every round records its
// number, runs an optional hook (which may fail the round), and commits.
type fakeStep struct {
	d        *Driver
	hook     func(i int) error
	ran      []int
	restored *checkpoint.Snapshot
}

func (s *fakeStep) Done() bool { return false }

func (s *fakeStep) Round(i int) (bool, error) {
	if s.hook != nil {
		if err := s.hook(i); err != nil {
			return false, err
		}
	}
	s.ran = append(s.ran, i)
	return false, s.d.Commit(i)
}

func (s *fakeStep) Snapshot(i int) *checkpoint.Snapshot {
	return &checkpoint.Snapshot{Iter: i, N: 4, Dims: 2, D: 1, Seed: 7,
		Mean: []float64{0, 0}, C: matrix.NewDense(2, 1)}
}

func (s *fakeStep) Restore(snap *checkpoint.Snapshot) { s.restored = snap }

// newDriver builds a single-machine driver checkpointing every other round
// into dir, with a cancelable interrupt and a collected trace.
func newDriver(t *testing.T, dir string) (*Driver, *fakeStep, context.CancelFunc, *trace.Collector) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	tr := trace.New()
	col := trace.NewCollector()
	tr.AddObserver(col)
	d := &Driver{
		Checkpoint: CheckpointSpec{Interval: 2, Dir: dir},
		Interrupt:  cluster.NewInterrupt(ctx, 0),
		Tracer:     tr,
		Metrics:    &cluster.Metrics{},
	}
	s := &fakeStep{d: d}
	return d, s, cancel, col
}

func run(d *Driver, s *fakeStep) error { return d.Run(s, 4, 2, 1, 7, 5) }

func abortOf(t *testing.T, err error) *cluster.AbortError {
	t.Helper()
	var ab *cluster.AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want *cluster.AbortError, got %v", err)
	}
	return ab
}

// TestFinalSaveFailureReported drives the abort path whose final snapshot
// cannot be written: the checkpoint directory turns into a regular file
// during an off-interval round that also cancels the run. The abort must
// still come back typed, report no checkpoint, and leave a
// final-checkpoint-failed event after the bounded retries.
func TestFinalSaveFailureReported(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	d, s, cancel, col := newDriver(t, dir)
	s.hook = func(i int) error {
		if i == 3 {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
				t.Fatal(err)
			}
			cancel()
		}
		return nil
	}
	ab := abortOf(t, run(d, s))
	if ab.Iter != 3 || ab.Checkpointed {
		t.Fatalf("abort = %+v, want Iter 3 and Checkpointed false", ab)
	}
	if !errors.Is(ab, cluster.ErrCanceled) {
		t.Errorf("abort cause %v, want ErrCanceled", ab.Cause)
	}
	tr := col.Trace()
	if got := len(tr.FindEvents("final-checkpoint-failed")); got != 1 {
		t.Errorf("final-checkpoint-failed events = %d, want 1", got)
	}
	if got := len(tr.FindEvents("final-checkpoint")); got != 0 {
		t.Errorf("final-checkpoint events = %d, want 0", got)
	}
	if d.Metrics.CheckpointBytes <= 0 {
		t.Error("the round-2 periodic write was not charged to the local metrics")
	}
}

// TestAbortCheckpointedDecision pins the three ways an abort can be
// resume-usable: a boundary on the interval (covered by the periodic
// write), an off-interval boundary (covered by the uncharged final write),
// and a mid-round interrupt (covered by an earlier periodic write only).
func TestAbortCheckpointedDecision(t *testing.T) {
	cases := []struct {
		name      string
		at        int
		midRound  bool
		wantIter  int
		wantCkpt  bool
		wantFinal int
	}{
		{"boundary on interval", 2, false, 2, true, 0},
		{"boundary off interval", 3, false, 3, true, 1},
		{"mid-round after a periodic write", 3, true, 2, true, 0},
		{"mid-round before any write", 2, true, 1, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, s, cancel, col := newDriver(t, dir)
			s.hook = func(i int) error {
				if i == tc.at {
					cancel()
					if tc.midRound {
						return d.Interrupt.Err()
					}
				}
				return nil
			}
			ab := abortOf(t, run(d, s))
			if ab.Iter != tc.wantIter || ab.Checkpointed != tc.wantCkpt {
				t.Fatalf("abort = %+v, want Iter %d Checkpointed %v", ab, tc.wantIter, tc.wantCkpt)
			}
			if got := len(col.Trace().FindEvents("final-checkpoint")); got != tc.wantFinal {
				t.Errorf("final-checkpoint events = %d, want %d", got, tc.wantFinal)
			}
			if tc.wantCkpt {
				if _, err := checkpoint.Latest(dir); err != nil {
					t.Errorf("Checkpointed abort left no loadable snapshot: %v", err)
				}
			}
		})
	}
}

// TestCrashAfterPeriodicWrite: a scheduled driver crash fires after the
// round's periodic write, so the snapshot of the crashing round survives.
func TestCrashAfterPeriodicWrite(t *testing.T) {
	dir := t.TempDir()
	d, s, _, _ := newDriver(t, dir)
	d.Faults = &cluster.FaultPlan{DriverCrashIters: []int{4}}
	var crash *cluster.DriverCrashError
	if err := run(d, s); !errors.As(err, &crash) || crash.Iter != 4 {
		t.Fatalf("want a driver crash at round 4, got %v", err)
	}
	snap, err := checkpoint.Latest(dir)
	if err != nil || snap.Iter != 4 {
		t.Fatalf("latest snapshot = %v, %v; want round 4", snap, err)
	}
}

// TestResumePrologueLocal: a single-machine resume restores the snapshot's
// metrics, counts the restart, and continues at the round after the
// snapshot; a scratch restart only counts the restart.
func TestResumePrologueLocal(t *testing.T) {
	d, s, _, _ := newDriver(t, t.TempDir())
	d.Resume = s.Snapshot(2)
	d.Resume.Metrics.CheckpointBytes = 99
	d.Incarnation = 1
	if err := run(d, s); err != nil {
		t.Fatal(err)
	}
	if s.restored != d.Resume || len(s.ran) != 3 || s.ran[0] != 3 {
		t.Fatalf("resume restored %v and ran rounds %v, want the snapshot then rounds 3-5", s.restored, s.ran)
	}
	if d.Metrics.DriverRestarts != 1 || d.Metrics.CheckpointBytes <= 99 {
		t.Errorf("resumed metrics %+v, want 1 restart on top of the snapshot's", *d.Metrics)
	}

	d, s, _, _ = newDriver(t, t.TempDir())
	d.Incarnation = 1
	if err := run(d, s); err != nil {
		t.Fatal(err)
	}
	if s.restored != nil || len(s.ran) != 5 || d.Metrics.DriverRestarts != 1 {
		t.Errorf("scratch restart: restored %v, rounds %v, restarts %d", s.restored, s.ran, d.Metrics.DriverRestarts)
	}

	d, s, _, _ = newDriver(t, t.TempDir())
	d.Resume = s.Snapshot(2)
	d.Resume.Seed = 8
	var mismatch *checkpoint.MismatchError
	if err := run(d, s); !errors.As(err, &mismatch) {
		t.Fatalf("snapshot of another problem: want MismatchError, got %v", err)
	}
}
