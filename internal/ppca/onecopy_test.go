package ppca

import (
	"math"
	"testing"

	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/rdd"
)

// sameFit fails unless a and b are bit-identical in their components, noise
// variance and per-iteration error history.
func sameFit(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Components.Data) != len(b.Components.Data) {
		t.Fatalf("component shapes differ: %d vs %d", len(a.Components.Data), len(b.Components.Data))
	}
	for i, v := range a.Components.Data {
		if math.Float64bits(v) != math.Float64bits(b.Components.Data[i]) {
			t.Fatalf("component %d differs: %v vs %v", i, v, b.Components.Data[i])
		}
	}
	if math.Float64bits(a.SS) != math.Float64bits(b.SS) {
		t.Fatalf("SS differs: %v vs %v", a.SS, b.SS)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("iteration %d differs:\n%+v\n%+v", i, a.History[i], b.History[i])
		}
	}
}

// TestMapReduceDenseMatchesGeneric: ytxMapper accumulates in place in the
// rows its emitter hands out — shuffle-slab rows on the flat-slab path,
// value-map rows on the generic path (DisableDense). Both paths must give the
// same fit and the same simulated-cluster metrics, bit for bit, with and
// without retried task attempts.
func TestMapReduceDenseMatchesGeneric(t *testing.T) {
	rows, _ := testRows(t, 240, 40, 3, 31)
	opt := DefaultOptions(3)
	opt.MaxIter = 4
	opt.Tol = 0
	for _, tc := range []struct {
		name string
		plan *cluster.FaultPlan
	}{
		{"fault-free", nil},
		{"retries", &cluster.FaultPlan{Seed: 5, TaskFailureRate: 0.04}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fit := func(disableDense bool) (*Result, cluster.Metrics) {
				eng := testEngineMR()
				eng.DisableDense = disableDense
				eng.Faults = tc.plan
				eng.MaxAttempts = 12
				res, err := FitMapReduce(eng, rows, 40, opt)
				if err != nil {
					t.Fatal(err)
				}
				return res, eng.Cluster.Metrics()
			}
			dense, dm := fit(false)
			generic, gm := fit(true)
			sameFit(t, dense, generic)
			if dm != gm {
				t.Fatalf("metrics differ:\ndense   %+v\ngeneric %+v", dm, gm)
			}
			if tc.plan != nil && dm.FailedAttempts == 0 {
				t.Fatal("the fault plan retried no attempt")
			}
		})
	}
}

// ytxPassAllocs returns the allocations of one warm consolidated YtX pass
// (the third of three) on a dims-wide input whose rows touch about a tenth
// of the columns each, so the touched column count scales with dims.
func ytxPassAllocs(t *testing.T, spark bool, dims int) float64 {
	t.Helper()
	const n, d = 64, 4
	y := randomSparseMat(matrix.NewRNG(uint64(dims)), n, dims, 0.1)
	rows := dataset.Rows(y)
	opt := DefaultOptions(d)
	mean := y.ColMeans()
	em := newEMDriver(opt, n, dims, mean, y.CenteredFrobeniusSq(mean))
	if err := em.prepare(); err != nil {
		t.Fatal(err)
	}
	var pass func() error
	if spark {
		ctx := testCtxSpark()
		yr := rdd.Parallelize(ctx, "Y", rows, mapred.BytesOfSparseVec)
		yr.Persist()
		scr := newSparkScratch(yr.NumPartitions(), dims, d)
		pass = func() error {
			_, err := sparkYtXJob(ctx, yr, em, opt, scr)
			return err
		}
	} else {
		eng := testEngineMR()
		scr := newMRScratch(eng.NumSplits(n), d)
		sums := newJobSums(dims, d)
		pass = func() error {
			_, err := ytxJob(eng, rows, dims, em, opt, scr, sums)
			return err
		}
	}
	for i := 0; i < 2; i++ {
		if err := pass(); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(20, func() {
		if err := pass(); err != nil {
			t.Fatal(err)
		}
	})
}

// mapTableAllocs is what filling a map with n int keys costs in allocations
// — the part of a pass's object count that belongs to the map a
// mapred.Run returns, which the runtime splits into more tables as it grows.
func mapTableAllocs(n int) float64 {
	return testing.AllocsPerRun(20, func() {
		m := make(map[int][]float64, n)
		for k := 0; k < n; k++ {
			m[k] = nil
		}
	})
}

// TestYtXPassAllocsIndependentOfDims: a warm YtX pass holds each partial in
// one flat store per task, so widening the input from 200 to 2000 columns —
// and the touched columns with it — adds no objects. On MapReduce the only
// difference allowed is the result map mapred.Run hands back (one entry per
// key, stored by the runtime in more tables when it has more keys); Spark
// builds no per-column object at all.
func TestYtXPassAllocsIndependentOfDims(t *testing.T) {
	const small, large = 200, 2000
	for _, spark := range []bool{false, true} {
		name := "mapreduce"
		if spark {
			name = "spark"
		}
		t.Run(name, func(t *testing.T) {
			a, b := ytxPassAllocs(t, spark, small), ytxPassAllocs(t, spark, large)
			want := a
			if !spark {
				// Keys: the columns plus the XtX and ΣX slots.
				want += mapTableAllocs(large+2) - mapTableAllocs(small+2)
			}
			if b != want {
				t.Fatalf("warm pass allocations: %v at D=%d, %v at D=%d (want %v)", a, small, b, large, want)
			}
		})
	}
}
