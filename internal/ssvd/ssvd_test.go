package ssvd

import (
	"testing"

	"spca/internal/cluster"
	"spca/internal/dataset"
	"spca/internal/mapred"
	"spca/internal/matrix"
)

func testEngine() *mapred.Engine {
	return mapred.NewEngine(cluster.MustNew(cluster.DefaultConfig()))
}

func plantedData(n, dims, rank int, seed uint64) (*matrix.Sparse, []matrix.SparseVector) {
	y := dataset.MustGenerate(dataset.Spec{
		Kind: dataset.KindDiabetes, Rows: n, Cols: dims, Rank: rank, Seed: seed,
	})
	return y, dataset.Rows(y)
}

func TestSSVDRecoversPlantedSubspace(t *testing.T) {
	y, rows := plantedData(200, 50, 4, 31)
	opt := DefaultOptions(4)
	opt.PowerIterations = 3
	opt.MaxRounds = 1
	res, err := FitMapReduce(testEngine(), rows, 50, opt)
	if err != nil {
		t.Fatal(err)
	}
	mean := y.ColMeans()
	_, _, v := matrix.TopSVD(y.Dense().SubRowVec(mean), 4)
	if gap := matrix.SubspaceGap(res.Components, v); gap > 0.01 {
		t.Fatalf("SSVD subspace gap %v", gap)
	}
	// Singular values sorted descending.
	for i := 1; i < len(res.Singular); i++ {
		if res.Singular[i] > res.Singular[i-1] {
			t.Fatalf("singular values unsorted: %v", res.Singular)
		}
	}
}

func TestSSVDValidation(t *testing.T) {
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
}

func TestSSVDPowerIterationsImproveAccuracy(t *testing.T) {
	// Noisy data where the sketch alone is rough: a run with power
	// iterations must beat the plain q=0 run.
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 500, Cols: 200, Seed: 33})
	rows := dataset.Rows(y)
	_ = y
	base := DefaultOptions(5)
	base.Oversample = 2 // tight sketch so refinement matters
	base.MaxRounds = 1
	plain, err := FitMapReduce(testEngine(), rows, 200, base)
	if err != nil {
		t.Fatal(err)
	}
	refined := base
	refined.PowerIterations = 4
	power, err := FitMapReduce(testEngine(), rows, 200, refined)
	if err != nil {
		t.Fatal(err)
	}
	if power.History[0].Err > plain.History[0].Err+1e-9 {
		t.Fatalf("power iterations made the error worse: %v vs %v",
			power.History[0].Err, plain.History[0].Err)
	}
}

func TestSSVDRoundsNeverWorsenError(t *testing.T) {
	// Best-of-rounds: the recorded error is non-increasing across rounds.
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 400, Cols: 150, Seed: 38})
	rows := dataset.Rows(y)
	opt := DefaultOptions(5)
	opt.MaxRounds = 5
	res, err := FitMapReduce(testEngine(), rows, 150, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 5 {
		t.Fatalf("expected 5 rounds, got %d", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Err > res.History[i-1].Err+1e-12 {
			t.Fatalf("best-of-rounds error increased: %v", res.History)
		}
	}
}

func TestSSVDTargetAccuracyStops(t *testing.T) {
	y, rows := plantedData(150, 40, 3, 34)
	opt := DefaultOptions(3)
	opt.PowerIterations = 8
	opt.MaxRounds = 8
	opt.IdealError = idealErrorFor(y, 3)
	opt.TargetAccuracy = 0.95
	res, err := FitMapReduce(testEngine(), rows, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Fatalf("easy planted data should converge fast, took %d rounds", res.Iterations)
	}
	if res.History[len(res.History)-1].Accuracy < 0.95 {
		t.Fatalf("final accuracy %v", res.History[len(res.History)-1].Accuracy)
	}
}

// idealErrorFor computes the exact rank-d PCA error with the same sampled
// metric the fit uses.
func idealErrorFor(y *matrix.Sparse, d int) float64 {
	mean := y.ColMeans()
	_, _, v := matrix.TopSVD(y.Dense().SubRowVec(mean), d)
	return newReconScratch(y.C, d).reconstructionError(dataset.Rows(y), mean, v, sampleIdx(y.R, 256, 42))
}

func TestSSVDGeneratesMoreShuffleThanItsInput(t *testing.T) {
	// The defining property of Mahout-PCA in the paper: intermediate data
	// far exceeds the input size.
	y := dataset.MustGenerate(dataset.Spec{Kind: dataset.KindTweets, Rows: 800, Cols: 300, Seed: 35})
	rows := dataset.Rows(y)
	eng := testEngine()
	opt := DefaultOptions(10)
	opt.PowerIterations = 2
	opt.MaxRounds = 1
	if _, err := FitMapReduce(eng, rows, 300, opt); err != nil {
		t.Fatal(err)
	}
	inputBytes := mapred.BytesOfSparse(y)
	if sh := eng.Cluster.Metrics().ShuffleBytes; sh < 5*inputBytes {
		t.Fatalf("Mahout-style SSVD should shuffle >> input: %d vs input %d", sh, inputBytes)
	}
}

func TestSSVDDeterministic(t *testing.T) {
	_, rows := plantedData(100, 30, 3, 36)
	opt := DefaultOptions(3)
	opt.PowerIterations = 1
	opt.MaxRounds = 2
	a, err := FitMapReduce(testEngine(), rows, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitMapReduce(testEngine(), rows, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Components.MaxAbsDiff(b.Components) != 0 {
		t.Fatal("SSVD not deterministic")
	}
}

func TestSSVDOversampleClamped(t *testing.T) {
	// k = d + oversample must clamp to dims and n without failing.
	_, rows := plantedData(20, 8, 2, 37)
	opt := DefaultOptions(2)
	opt.Oversample = 100
	opt.PowerIterations = 1
	opt.MaxRounds = 1
	res, err := FitMapReduce(testEngine(), rows, 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components.C != 2 || res.Components.R != 8 {
		t.Fatalf("components dims %dx%d", res.Components.R, res.Components.C)
	}
}
