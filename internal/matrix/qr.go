package matrix

import (
	"fmt"
	"math"

	"spca/internal/parallel"
)

// QR computes the thin QR decomposition of an r-by-c matrix with r >= c using
// Householder reflections: A = Q*R with Q r-by-c having orthonormal columns
// and R c-by-c upper triangular.
func QR(a *Dense) (q, r *Dense) {
	ws := new(QRWorkspace)
	q = ws.Q(a)
	return q, extractR(ws.w)
}

// QRR computes only the R factor of the thin QR decomposition — half the
// work of QR when Q is not needed, e.g. in TSQR reductions where only the
// triangular factors travel.
func QRR(a *Dense) *Dense {
	ws := new(QRWorkspace)
	ws.householder(a)
	return extractR(ws.w)
}

// QRWorkspace holds every buffer of a thin Householder QR: the working copy
// of A (R on and above the diagonal, the reflectors below it), the betas,
// the sweep accumulator, Q, and the parallel sweep bodies. The zero value is
// ready to use. Buffers are kept across calls, so repeated factorizations of
// same-shaped inputs allocate nothing on the inline path. A workspace is not
// safe for concurrent use.
type QRWorkspace struct {
	w, q     *Dense
	betas, s []float64
	k        int // the reflection the sweep bodies apply

	// The sweeps are built once and reused so the closures passed to
	// parallel.For do not escape (and allocate) on every reflection.
	hhAccum, hhApply, qAccum, qApply func(lo, hi int)
}

// Q returns the thin Q factor of a, which must have rows >= cols. a is not
// modified. The returned matrix belongs to the workspace and is valid until
// the next call.
func (ws *QRWorkspace) Q(a *Dense) *Dense {
	ws.householder(a)
	ws.formThinQ()
	return ws.q
}

// sized returns d when it is already r-by-c, else a new zeroed r-by-c matrix.
func sized(d *Dense, r, c int) *Dense {
	if d == nil || d.R != r || d.C != c {
		return NewDense(r, c)
	}
	return d
}

func (ws *QRWorkspace) init() {
	if ws.hhAccum != nil {
		return
	}
	// s = vᵀ · A[k:m, k+1:n] with v_k = 1. Each chunk owns tail[lo:hi) and
	// accumulates its columns over i in ascending order, bit-identical to
	// the sequential sweep. The sums build up in a stack buffer, one block
	// of columns at a time, so chunks do not share a written cache line
	// while they sweep the rows.
	ws.hhAccum = func(lo, hi int) {
		w, k := ws.w, ws.k
		m, n := w.Dims()
		tail := ws.s[k+1 : n]
		var buf [colBlock]float64
		for blo := lo; blo < hi; blo += colBlock {
			bhi := min(blo+colBlock, hi)
			acc := buf[:bhi-blo]
			clear(acc)
			for i := k; i < m; i++ {
				vi := 1.0
				if i > k {
					vi = w.Data[i*n+k]
				}
				row := w.Data[i*n+k+1+blo : i*n+k+1+bhi]
				for t, rv := range row {
					acc[t] += vi * rv
				}
			}
			copy(tail[blo:bhi], acc)
		}
	}
	// A -= v · sᵀ over a band of rows k+lo..k+hi-1.
	ws.hhApply = func(lo, hi int) {
		w, k := ws.w, ws.k
		n := w.C
		tail := ws.s[k+1 : n]
		for i := k + lo; i < k+hi; i++ {
			vi := 1.0
			if i > k {
				vi = w.Data[i*n+k]
			}
			row := w.Data[i*n+k+1 : i*n+n]
			for t := range row {
				row[t] -= vi * tail[t]
			}
		}
	}
	// s_j = q[k,j] + Σ_{i>k} w[i,k]·q[i,j] for the chunk's columns, in
	// ascending i, blocked through a stack buffer like hhAccum.
	ws.qAccum = func(lo, hi int) {
		w, q, k := ws.w, ws.q, ws.k
		m, n := w.Dims()
		var buf [colBlock]float64
		for blo := lo; blo < hi; blo += colBlock {
			bhi := min(blo+colBlock, hi)
			acc := buf[:bhi-blo]
			copy(acc, q.Data[k*n+blo:k*n+bhi])
			for i := k + 1; i < m; i++ {
				wik := w.Data[i*n+k]
				for t, v := range q.Data[i*n+blo : i*n+bhi] {
					acc[t] += wik * v
				}
			}
			copy(ws.s[blo:bhi], acc)
		}
	}
	// q[i,j] -= s_j·w[i,k] over a band of rows k+1+lo..k+hi.
	ws.qApply = func(lo, hi int) {
		w, q, k := ws.w, ws.q, ws.k
		n := w.C
		s := ws.s[:n]
		for i := k + 1 + lo; i < k+1+hi; i++ {
			wik := w.Data[i*n+k]
			row := q.Data[i*n : i*n+n]
			for j, sj := range s {
				row[j] -= sj * wik
			}
		}
	}
}

// householder copies a into ws.w and reduces it in place: R on and above
// the diagonal, the scaled Householder vectors below it, the beta
// coefficients in ws.betas.
//
// Each reflection is applied with two row-major sweeps over the trailing
// submatrix (accumulate s = vᵀA, then A -= v·sᵀ), so memory is read in
// order; formThinQ applies the reflections to Q the same way.
func (ws *QRWorkspace) householder(a *Dense) {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("matrix: QR requires rows >= cols, got %dx%d", m, n))
	}
	ws.init()
	ws.w = sized(ws.w, m, n)
	copy(ws.w.Data, a.Data)
	if cap(ws.betas) < n {
		ws.betas = make([]float64, n)
		ws.s = make([]float64, n)
	}
	ws.betas, ws.s = ws.betas[:n], ws.s[:n]
	w, betas := ws.w, ws.betas
	for k := 0; k < n; k++ {
		// Householder vector for column k, rows k..m-1.
		var norm float64
		for i := k; i < m; i++ {
			v := w.Data[i*n+k]
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			betas[k] = 0
			continue
		}
		alpha := w.Data[k*n+k]
		if alpha > 0 {
			norm = -norm
		}
		v0 := alpha - norm
		w.Data[k*n+k] = norm // R diagonal
		inv := 1 / v0
		for i := k + 1; i < m; i++ {
			w.Data[i*n+k] *= inv
		}
		beta := -v0 / norm
		betas[k] = beta

		// s = beta · (vᵀ · A[k:m, k+1:n]), parallel over trailing columns.
		ws.k = k
		tail := ws.s[k+1 : n]
		parallel.For(len(tail), flopGrain(2*(m-k)), ws.hhAccum)
		for t := range tail {
			tail[t] *= beta
		}
		// A -= v · sᵀ; rows are independent, so this sweep parallelizes
		// over row bands.
		parallel.For(m-k, flopGrain(2*(n-k-1)), ws.hhApply)
	}
}

func extractR(w *Dense) *Dense {
	n := w.C
	r := NewDense(n, n)
	for i := 0; i < n; i++ {
		copy(r.Row(i)[i:], w.Row(i)[i:])
	}
	return r
}

// formThinQ applies the stored reflections, last to first, to the first n
// columns of I, leaving Q in ws.q. Each reflection is the same two
// row-major sweeps as in householder: accumulate s_j over ascending rows
// (parallel over column chunks), then subtract s_j·w[i,k] from every row
// below k (parallel over row bands). Every column of Q sees exactly the
// operation sequence of a per-column walk, so the result does not depend on
// the chunking.
func (ws *QRWorkspace) formThinQ() {
	w, betas := ws.w, ws.betas
	m, n := w.Dims()
	ws.q = sized(ws.q, m, n)
	q := ws.q
	q.Zero()
	for j := 0; j < n; j++ {
		q.Data[j*n+j] = 1
	}
	s := ws.s[:n]
	for k := n - 1; k >= 0; k-- {
		if betas[k] == 0 {
			continue
		}
		ws.k = k
		parallel.For(n, flopGrain(2*(m-k)), ws.qAccum)
		for j := range s {
			s[j] *= betas[k]
			q.Data[k*n+j] -= s[j]
		}
		parallel.For(m-k-1, flopGrain(2*n), ws.qApply)
	}
}

// GramSchmidt orthonormalizes the columns of a in place using modified
// Gram–Schmidt, returning the number of numerically independent columns.
// Dependent columns are replaced with zeros.
//
// The sweep is right-looking: once column k is normalized, its projection
// is removed from every later column with two row-major passes over a.Data
// (accumulate the coefficients, then subtract). Column j sees its
// projections onto columns 0..j-1 in order, then its norm and scale, with
// the arithmetic of a column-at-a-time walk, so the bits match that form.
// Coefficients live on the stack in blocks of colBlock columns, so the
// kernel allocates nothing.
func GramSchmidt(a *Dense) int {
	m, n := a.Dims()
	d := a.Data
	var buf [colBlock]float64
	rank := 0
	for k := 0; k < n; k++ {
		var ss float64
		for i := 0; i < m; i++ {
			v := d[i*n+k]
			ss += v * v
		}
		norm := math.Sqrt(ss)
		if norm < 1e-12 {
			for i := 0; i < m; i++ {
				d[i*n+k] = 0
			}
		} else {
			inv := 1 / norm
			for i := 0; i < m; i++ {
				d[i*n+k] *= inv
			}
			rank++
		}
		for lo := k + 1; lo < n; lo += colBlock {
			hi := min(lo+colBlock, n)
			proj := buf[:hi-lo]
			clear(proj)
			for i := 0; i < m; i++ {
				qi := d[i*n+k]
				for t, v := range d[i*n+lo : i*n+hi] {
					proj[t] += v * qi
				}
			}
			for i := 0; i < m; i++ {
				qi := d[i*n+k]
				row := d[i*n+lo : i*n+hi]
				for t, p := range proj {
					row[t] -= p * qi
				}
			}
		}
	}
	return rank
}

// colBlock is how many columns one accumulation pass (a QR column sweep or
// a GramSchmidt projection) sums at once; the sums fit in a fixed stack
// buffer.
const colBlock = 64
