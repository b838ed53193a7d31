package rsvd

import (
	"fmt"
	"testing"

	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/parallel"
	"spca/internal/rdd"
)

func testEngine() *mapred.Engine {
	return mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig()))
}

func testCtx() *rdd.Context {
	return rdd.NewContext(cluster.MustNew(cluster.DefaultConfig()))
}

func plantedData(n, dims, rank int, seed uint64) (*matrix.Sparse, []matrix.SparseVector) {
	y := dataset.MustGenerate(dataset.Spec{
		Kind: dataset.KindDiabetes, Rows: n, Cols: dims, Rank: rank, Seed: seed,
	})
	return y, dataset.Rows(y)
}

// fitBoth runs the same options through both engines.
func fitBoth(t *testing.T, rows []matrix.SparseVector, dims int, opt Options) (mr, sp *Result) {
	t.Helper()
	mr, err := FitMapReduce(testEngine(), rows, dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	sp, err = FitSpark(testCtx(), rows, dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	return mr, sp
}

func TestRSVDRecoversPlantedSubspace(t *testing.T) {
	y, rows := plantedData(200, 50, 4, 31)
	opt := DefaultOptions(4)
	opt.PowerIterations = 3
	mr, sp := fitBoth(t, rows, 50, opt)
	mean := y.ColMeans()
	_, _, v := matrix.TopSVD(y.Dense().SubRowVec(mean), 4)
	if gap := matrix.SubspaceGap(mr.Components, v); gap > 0.01 {
		t.Fatalf("mapreduce subspace gap %v", gap)
	}
	if gap := matrix.SubspaceGap(sp.Components, v); gap > 0.01 {
		t.Fatalf("spark subspace gap %v", gap)
	}
	for _, res := range []*Result{mr, sp} {
		for i := 1; i < len(res.Singular); i++ {
			if res.Singular[i] > res.Singular[i-1] {
				t.Fatalf("singular values unsorted: %v", res.Singular)
			}
		}
		if len(res.Mean) != 50 {
			t.Fatalf("mean length %d", len(res.Mean))
		}
	}
}

// TestRSVDHalkoBound is the property test: across oversample/power-iteration
// settings, the sketch's sampled reconstruction error stays within a
// Halko-style multiplicative factor of the exact rank-d error — loose for a
// bare sketch, tight once power iterations sharpen the range.
func TestRSVDHalkoBound(t *testing.T) {
	const d = 5
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 400, Cols: 120, Seed: 71})
	rows := dataset.Rows(y)
	mean := y.ColMeans()
	_, _, v := matrix.TopSVD(y.Dense().SubRowVec(mean), d)
	exact := newReconScratch(y.C, d).reconstructionError(rows, mean, v, sampleIdx(y.R, 256, 42))
	if exact <= 0 {
		t.Fatalf("degenerate exact error %v", exact)
	}
	cases := []struct {
		oversample, power int
		factor            float64 // err must be <= factor * exact
	}{
		{2, 0, 2.0},
		{10, 0, 1.75},
		{2, 2, 1.25},
		{10, 2, 1.1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p%d_q%d", tc.oversample, tc.power), func(t *testing.T) {
			opt := DefaultOptions(d)
			opt.Oversample = tc.oversample
			opt.PowerIterations = tc.power
			mr, sp := fitBoth(t, rows, y.C, opt)
			for name, res := range map[string]*Result{"mapreduce": mr, "spark": sp} {
				err := res.History[len(res.History)-1].Err
				if err > tc.factor*exact {
					t.Errorf("%s: err %v exceeds %v x exact %v", name, err, tc.factor, exact)
				}
			}
		})
	}
}

func TestRSVDValidation(t *testing.T) {
	_, rows := plantedData(20, 10, 2, 32)
	if _, err := FitMapReduce(testEngine(), rows, 10, DefaultOptions(0)); err == nil {
		t.Fatal("expected error for zero components")
	}
	if _, err := FitMapReduce(testEngine(), rows, 10, DefaultOptions(11)); err == nil {
		t.Fatal("expected error for d > D")
	}
	if _, err := FitMapReduce(testEngine(), nil, 10, DefaultOptions(2)); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := FitSpark(testCtx(), rows, 10, DefaultOptions(0)); err == nil {
		t.Fatal("spark: expected error for zero components")
	}
	if _, err := FitSpark(testCtx(), nil, 10, DefaultOptions(2)); err == nil {
		t.Fatal("spark: expected error for empty input")
	}
	bad := DefaultOptions(2)
	bad.PowerIterations = -1
	if _, err := FitMapReduce(testEngine(), rows, 10, bad); err == nil {
		t.Fatal("expected error for negative power iterations")
	}
}

func TestRSVDDeterministic(t *testing.T) {
	_, rows := plantedData(100, 30, 3, 36)
	opt := DefaultOptions(3)
	opt.MaxRounds = 2
	a1, s1 := fitBoth(t, rows, 30, opt)
	a2, s2 := fitBoth(t, rows, 30, opt)
	if a1.Components.MaxAbsDiff(a2.Components) != 0 {
		t.Fatal("mapreduce fit not deterministic")
	}
	if s1.Components.MaxAbsDiff(s2.Components) != 0 {
		t.Fatal("spark fit not deterministic")
	}
}

// TestRSVDSequentialParallelIdentical pins the house invariant that the
// fitted model is bit-identical whether the shared kernels run inline or
// across worker goroutines.
func TestRSVDSequentialParallelIdentical(t *testing.T) {
	_, rows := plantedData(120, 40, 3, 39)
	opt := DefaultOptions(3)
	opt.PowerIterations = 1
	parallel.SetSequential(true)
	seqMR, seqSP := fitBoth(t, rows, 40, opt)
	parallel.SetSequential(false)
	defer parallel.SetSequential(false)
	parMR, parSP := fitBoth(t, rows, 40, opt)
	if seqMR.Components.MaxAbsDiff(parMR.Components) != 0 {
		t.Fatal("mapreduce: sequential vs parallel differ")
	}
	if seqSP.Components.MaxAbsDiff(parSP.Components) != 0 {
		t.Fatal("spark: sequential vs parallel differ")
	}
}

// TestRSVDFaultsDoNotChangeModel pins the other half of the determinism
// invariant: an active task-level fault plan changes costs, never bits.
func TestRSVDFaultsDoNotChangeModel(t *testing.T) {
	_, rows := plantedData(150, 40, 3, 41)
	opt := DefaultOptions(3)
	opt.MaxRounds = 2

	clean, err := FitMapReduce(testEngine(), rows, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine()
	eng.Faults = &cluster.FaultPlan{Seed: 7, TaskFailureRate: 0.2, StragglerRate: 0.1, NodeLossRate: 0.05}
	eng.MaxAttempts = 12
	faulty, err := FitMapReduce(eng, rows, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Components.MaxAbsDiff(faulty.Components) != 0 {
		t.Fatal("mapreduce: faults changed the fitted model")
	}
	if faulty.Metrics.SimSeconds <= clean.Metrics.SimSeconds {
		t.Fatal("mapreduce: faults should cost simulated time")
	}

	cleanSP, err := FitSpark(testCtx(), rows, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx()
	ctx.SetFaultPlan(&cluster.FaultPlan{Seed: 7, TaskFailureRate: 0.2, StragglerRate: 0.1, NodeLossRate: 0.05})
	faultySP, err := FitSpark(ctx, rows, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cleanSP.Components.MaxAbsDiff(faultySP.Components) != 0 {
		t.Fatal("spark: faults changed the fitted model")
	}
	if faultySP.Metrics.SimSeconds <= cleanSP.Metrics.SimSeconds {
		t.Fatal("spark: faults should cost simulated time")
	}
}

// TestRSVDSparkCommunicationOptimal pins the Balcan variant's defining
// property: its shuffle volume is a small multiple of s·k·D, far below the
// MapReduce pipeline's N-proportional materialization.
func TestRSVDSparkCommunicationOptimal(t *testing.T) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 800, Cols: 100, Seed: 44})
	rows := dataset.Rows(y)
	opt := DefaultOptions(5)
	opt.PowerIterations = 1

	engMR := testEngine()
	if _, err := FitMapReduce(engMR, rows, 100, opt); err != nil {
		t.Fatal(err)
	}
	// One local sketch per node — the granularity Balcan et al. assume.
	cl := cluster.MustNew(cluster.DefaultConfig())
	ctx := rdd.NewContext(cl).WithPartitions(cl.Config().Nodes)
	if _, err := FitSpark(ctx, rows, 100, opt); err != nil {
		t.Fatal(err)
	}
	mrShuffle := engMR.Cluster.Metrics().ShuffleBytes
	spShuffle := ctx.Cluster().Metrics().ShuffleBytes
	if spShuffle*2 >= mrShuffle {
		t.Fatalf("spark sketch should shuffle far less than mapreduce: %d vs %d", spShuffle, mrShuffle)
	}
	mrMat := engMR.Cluster.Metrics().MaterializedBytes
	spMat := ctx.Cluster().Metrics().MaterializedBytes
	if spMat >= mrMat {
		t.Fatalf("spark sketch should materialize less: %d vs %d", spMat, mrMat)
	}
}

func TestRSVDBestOfRoundsMonotone(t *testing.T) {
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 300, Cols: 80, Seed: 52})
	rows := dataset.Rows(y)
	opt := DefaultOptions(4)
	opt.MaxRounds = 4
	mr, sp := fitBoth(t, rows, 80, opt)
	for name, res := range map[string]*Result{"mapreduce": mr, "spark": sp} {
		if len(res.History) != 4 {
			t.Fatalf("%s: expected 4 rounds, got %d", name, len(res.History))
		}
		for i := 1; i < len(res.History); i++ {
			if res.History[i].Err > res.History[i-1].Err+1e-12 {
				t.Fatalf("%s: best-of-rounds error increased: %v", name, res.History)
			}
		}
	}
}

func TestRSVDTargetAccuracyStops(t *testing.T) {
	y, rows := plantedData(150, 40, 3, 34)
	opt := DefaultOptions(3)
	opt.PowerIterations = 4
	opt.MaxRounds = 8
	opt.IdealError = idealErrorFor(y, 3)
	opt.TargetAccuracy = 0.95
	mr, sp := fitBoth(t, rows, 40, opt)
	for name, res := range map[string]*Result{"mapreduce": mr, "spark": sp} {
		if res.Iterations > 3 {
			t.Fatalf("%s: easy planted data should converge fast, took %d rounds", name, res.Iterations)
		}
		if res.History[len(res.History)-1].Accuracy < 0.95 {
			t.Fatalf("%s: final accuracy %v", name, res.History[len(res.History)-1].Accuracy)
		}
	}
}

// idealErrorFor computes the exact rank-d PCA error with the same sampled
// metric the fit uses.
func idealErrorFor(y *matrix.Sparse, d int) float64 {
	mean := y.ColMeans()
	_, _, v := matrix.TopSVD(y.Dense().SubRowVec(mean), d)
	return newReconScratch(y.C, d).reconstructionError(dataset.Rows(y), mean, v, sampleIdx(y.R, 256, 42))
}

func TestRSVDOversampleClamped(t *testing.T) {
	_, rows := plantedData(20, 8, 2, 37)
	opt := DefaultOptions(2)
	opt.Oversample = 100
	opt.PowerIterations = 1
	mr, sp := fitBoth(t, rows, 8, opt)
	for name, res := range map[string]*Result{"mapreduce": mr, "spark": sp} {
		if res.Components.C != 2 || res.Components.R != 8 {
			t.Fatalf("%s: components dims %dx%d", name, res.Components.R, res.Components.C)
		}
	}
}

// TestLocalSketchZeroAllocs gates the package doc's mapper promise on the
// Spark engine: once a partition's scratch exists, a whole local sketch
// (projection, in-place Gram–Schmidt, power iteration, the shipped block)
// allocates nothing.
func TestLocalSketchZeroAllocs(t *testing.T) {
	const n, dims, k = 1250, 128, 26
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindImages, Rows: n, Cols: dims, Seed: 5})
	part := dataset.Rows(y)
	mean := y.ColMeans()
	omega := matrix.NormRnd(matrix.NewRNG(6), dims, k)
	mb := omega.MulVecT(mean)
	ls := newLocalSketch(n, dims, k)
	var ops rdd.TaskOps
	run := func() { ls.run(part, omega, mb, mean, 1, &ops) }
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("localSketch.run: %v allocs/op, want 0", allocs)
	}
}
