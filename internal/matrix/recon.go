package matrix

import (
	"fmt"
	"math"
	"sort"

	"spca/internal/parallel"
)

// ReconTerms fills the per-column reconstruction-error terms of one sparse
// row against the rank-k model (mean, w): for every column j,
//
//	num[j] = |y_j - (mean[j] + xi · w_j)|   and   den[j] = |y_j|,
//
// where w_j is row j of the D-by-k loading matrix w and xi is the row's
// k-dimensional latent representation. Every algorithm package shares this
// inner loop for its sampled relative 1-norm error metric.
//
// Column chunks are independent (each chunk enters the row's index list by
// binary search and writes only its own num/den range), so the fill runs on
// the parallel pool; callers then accumulate num and den in ascending j,
// which keeps the final sums bit-identical to the historical sequential
// evaluation.
func ReconTerms(row SparseVector, mean []float64, w *Dense, xi, num, den []float64) {
	d := w.R
	if len(mean) != d || row.Len != d || len(num) < d || len(den) < d {
		panic(fmt.Sprintf("matrix: ReconTerms dims w %dx%d, mean %d, row %d, num %d, den %d",
			w.R, w.C, len(mean), row.Len, len(num), len(den)))
	}
	if len(xi) != w.C {
		panic(fmt.Sprintf("matrix: ReconTerms latent length %d, want %d", len(xi), w.C))
	}
	parallel.For(d, flopGrain(2*w.C), func(lo, hi int) {
		nz := sort.SearchInts(row.Indices, lo)
		for j := lo; j < hi; j++ {
			recon := mean[j] + dot(xi, w.Row(j))
			var yv float64
			if nz < row.NNZ() && row.Indices[nz] == j {
				yv = row.Values[nz]
				nz++
			}
			num[j] = math.Abs(yv - recon)
			den[j] = math.Abs(yv)
		}
	})
}

// ReconScratch holds the buffers of the sketch engines' error metric,
// allocated once per fit and reused by every round's Error call.
type ReconScratch struct {
	xi, wm, tNum, tDen []float64
}

// NewReconScratch sizes the metric buffers for a dims-column input and a
// model of up to d components.
func NewReconScratch(dims, d int) *ReconScratch {
	return &ReconScratch{
		xi:   make([]float64, d),
		wm:   make([]float64, d),
		tNum: make([]float64, dims),
		tDen: make([]float64, dims),
	}
}

// Error is the sPCA metric for an orthonormal loading matrix w: the sampled
// relative 1-norm of Y - ((Yc·W)·Wᵀ + Ym) over the given rows of y.
func (rs *ReconScratch) Error(y []SparseVector, mean []float64, w *Dense, rows []int) float64 {
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
			AXPY(row.Values[t], w.Row(j), xi)
		}
		ReconTerms(row, mean, w, xi, tNum, tDen)
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
