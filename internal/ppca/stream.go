package ppca

import (
	"fmt"

	"spca/internal/cluster"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// FitStream runs the PPCA EM algorithm over a row source — typically a
// disk-resident matrix streamed one row at a time — so inputs far larger
// than memory can be fitted on a single machine. Each EM iteration makes
// two sequential passes over the source (the consolidated YtX pass and the
// ss3 pass), mirroring sPCA's two distributed jobs; memory use is O(D·d)
// regardless of N.
//
// The reconstruction-error metric is computed on a row sample captured
// during the first pass. TargetAccuracy/IdealError are not supported in
// streaming mode (computing the ideal error needs a Lanczos solver with
// dozens of passes); stopping is by Tol and MaxIter.
func FitStream(src matrix.RowSource, opt Options) (*Result, error) {
	n, dims := src.Dims()
	if err := opt.validate(n, dims); err != nil {
		return nil, err
	}
	if opt.TargetAccuracy > 0 {
		return nil, fmt.Errorf("ppca: TargetAccuracy is not supported in streaming mode (stop by Tol/MaxIter)")
	}
	if tr := opt.Tracer; tr != nil {
		// No simulated cluster: the trace carries structure (iterations,
		// events) with all timestamps at zero.
		tr.Begin("FitStream", trace.KindFit,
			trace.I("rows", int64(n)), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}

	// Pass 0: column means, Frobenius norm (Algorithm 3 streamed), and the
	// error-metric row sample, all in one scan.
	mean := make([]float64, dims)
	var count float64
	if err := src.Scan(func(i int, row matrix.SparseVector) error {
		for k, j := range row.Indices {
			mean[j] += row.Values[k]
		}
		count++
		return nil
	}); err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, fmt.Errorf("ppca: stream source yielded no rows")
	}
	matrix.VecScale(1/count, mean)

	var msum float64
	for _, mv := range mean {
		msum += mv * mv
	}
	sampleWant := opt.errorSample(n)
	sampleSet := make(map[int]int, len(sampleWant))
	for k, i := range sampleWant {
		sampleSet[i] = k
	}
	sampleBuilder := matrix.NewSparseBuilder(dims)
	nextSample := 0
	ss1 := msum * count
	if err := src.Scan(func(i int, row matrix.SparseVector) error {
		for k, j := range row.Indices {
			v := row.Values[k]
			d := v - mean[j]
			ss1 += d*d - mean[j]*mean[j]
		}
		if nextSample < len(sampleWant) && sampleWant[nextSample] == i {
			sampleBuilder.AddRow(append([]int(nil), row.Indices...), append([]float64(nil), row.Values...))
			nextSample++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	sample := sampleBuilder.Build()
	sampleRows := make([]int, sample.R)
	for i := range sampleRows {
		sampleRows[i] = i
	}

	// A streaming resume re-runs pass 0 above (the sample capture needs a
	// scan regardless, and its mean/ss1 are bit-identical to the
	// snapshot's); the round driver restores the model/guard/history state.
	em := newEMDriver(opt, n, dims, mean, ss1)
	res := &Result{Mean: mean}
	e := &streamEngine{
		src: src, pooled: newJobSums(dims, em.d),
		sample: sample, sampleRows: sampleRows,
		xi: make([]float64, em.d), ct: make([]float64, em.d),
	}
	if err := runEM(em, opt, e, res); err != nil {
		return nil, err
	}
	return res, nil
}

// streamEngine adapts the two streaming passes to the shared guarded EM
// loop. Like the local engine it has no simulated cluster; the error metric
// runs on the row sample captured during pass 0.
type streamEngine struct {
	src        matrix.RowSource
	pooled     jobSums // pass sums, zeroed in place every iteration
	sample     *matrix.Sparse
	sampleRows []int
	xi, ct     []float64
}

func (e *streamEngine) cluster() *cluster.Cluster { return nil }
func (e *streamEngine) faultEpoch() int64         { return 0 }
func (e *streamEngine) setFaultEpoch(int64)       {}
func (e *streamEngine) prepared(*emDriver)        {}

func (e *streamEngine) pass(em *emDriver) (jobSums, error) {
	// Consolidated YtX/XtX/ΣX in one sequential scan.
	sums := e.pooled
	sums.zero()
	xi := e.xi
	if err := e.src.Scan(func(i int, row matrix.SparseVector) error {
		computeLatentRow(row, em, xi)
		for k, j := range row.Indices {
			matrix.AXPY(row.Values[k], xi, sums.ytx.Row(j))
		}
		matrix.OuterAdd(sums.xtx, xi, xi)
		matrix.AXPY(1, xi, sums.sumX)
		return nil
	}); err != nil {
		return jobSums{}, err
	}
	return sums, nil
}

func (e *streamEngine) solved(*emDriver, *matrix.Dense) {}

func (e *streamEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	var ss3 float64
	xi, ct := e.xi, e.ct
	if err := e.src.Scan(func(i int, row matrix.SparseVector) error {
		computeLatentRow(row, em, xi)
		for k := range ct {
			ct[k] = 0
		}
		for k, j := range row.Indices {
			matrix.AXPY(row.Values[k], cNew.Row(j), ct)
		}
		ss3 += matrix.Dot(xi, ct)
		return nil
	}); err != nil {
		return 0, err
	}
	return ss3, nil
}

func (e *streamEngine) reconErr(em *emDriver) float64 {
	return reconError(em, e.sample, e.sampleRows)
}
