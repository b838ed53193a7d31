package matrix

import (
	"fmt"
	"math"
	"testing"

	"spca/internal/parallel"
)

// refFormThinQ is the column-walk formThinQ that the row-major sweeps
// replaced, kept as the bit-identity reference: it applies the stored
// reflections to the first n columns of I one column of Q at a time.
func refFormThinQ(w *Dense, betas []float64) *Dense {
	m, n := w.Dims()
	q := NewDense(m, n)
	for j := 0; j < n; j++ {
		q.Data[j*n+j] = 1
	}
	for k := n - 1; k >= 0; k-- {
		if betas[k] == 0 {
			continue
		}
		parallel.For(n, flopGrain(4*(m-k)), func(jlo, jhi int) {
			for j := jlo; j < jhi; j++ {
				s := q.Data[k*n+j]
				for i := k + 1; i < m; i++ {
					s += w.Data[i*n+k] * q.Data[i*n+j]
				}
				s *= betas[k]
				q.Data[k*n+j] -= s
				for i := k + 1; i < m; i++ {
					q.Data[i*n+j] -= s * w.Data[i*n+k]
				}
			}
		})
	}
	return q
}

// refGramSchmidt is the Col/SetCol modified Gram–Schmidt that the in-place
// right-looking sweep replaced, kept as the bit-identity reference.
func refGramSchmidt(a *Dense) int {
	m, n := a.Dims()
	rank := 0
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for k := 0; k < j; k++ {
			prev := a.Col(k)
			proj := dot(col, prev)
			for i := 0; i < m; i++ {
				col[i] -= proj * prev[i]
			}
		}
		norm := VecNorm2(col)
		if norm < 1e-12 {
			for i := range col {
				col[i] = 0
			}
		} else {
			VecScale(1/norm, col)
			rank++
		}
		a.SetCol(j, col)
	}
	return rank
}

// requireSameBits compares two matrices bit for bit, so NaN payloads and
// signed zeros must match too.
func requireSameBits(t *testing.T, name string, want, got *Dense) {
	t.Helper()
	if want.R != got.R || want.C != got.C {
		t.Fatalf("%s: dims %dx%d vs %dx%d", name, want.R, want.C, got.R, got.C)
	}
	for i, v := range want.Data {
		if math.Float64bits(v) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v (%#x), reference %v (%#x)", name,
				i/want.C, i%want.C, got.Data[i], math.Float64bits(got.Data[i]), v, math.Float64bits(v))
		}
	}
}

// orthoCases are the shapes and pathologies the rewritten kernels must
// reproduce bit for bit.
func orthoCases() []struct {
	name string
	a    *Dense
} {
	rng := NewRNG(41)
	type tc = struct {
		name string
		a    *Dense
	}
	cases := []tc{
		{"square-7", NormRnd(rng, 7, 7)},
		{"square-26", NormRnd(rng, 26, 26)},
		{"tall-5000x26", NormRnd(rng, 5000, 26)},
		{"n1-10x1", NormRnd(rng, 10, 1)},
		{"n1-1x1", NormRnd(rng, 1, 1)},
		{"ragged-1031x17", NormRnd(rng, 1031, 17)},
		{"ragged-97x53", NormRnd(rng, 97, 53)},
		{"wide-block-300x70", NormRnd(rng, 300, 70)},
	}

	// Columns below the 1e-12 rank threshold: an exact zero column, a column
	// at 1e-14 scale, and a column equal to a multiple of another.
	lowRank := NormRnd(rng, 400, 12)
	for i := 0; i < lowRank.R; i++ {
		lowRank.Set(i, 3, 0)
		lowRank.Set(i, 6, 1e-14*lowRank.At(i, 6))
		lowRank.Set(i, 9, 2*lowRank.At(i, 1))
	}
	cases = append(cases, tc{"below-threshold", lowRank})

	nan := NormRnd(rng, 300, 9)
	nan.Set(5, 2, math.NaN())
	nan.Set(299, 8, math.NaN())
	cases = append(cases, tc{"nan", nan})

	inf := NormRnd(rng, 300, 9)
	inf.Set(17, 4, math.Inf(1))
	inf.Set(250, 7, math.Inf(-1))
	cases = append(cases, tc{"inf", inf})
	return cases
}

// underPoolModes runs f once with the pool forced sequential and once with
// four workers forcing chunked execution.
func underPoolModes(t *testing.T, f func(t *testing.T)) {
	t.Run("sequential", func(t *testing.T) {
		parallel.SetSequential(true)
		defer parallel.SetSequential(false)
		f(t)
	})
	t.Run("workers4", func(t *testing.T) {
		parallel.SetWorkers(4)
		defer parallel.SetWorkers(0)
		f(t)
	})
}

// TestFormThinQMatchesColumnWalk pins the row-major formThinQ to the
// column-walk reference on the same Householder factors.
func TestFormThinQMatchesColumnWalk(t *testing.T) {
	for _, c := range orthoCases() {
		t.Run(c.name, func(t *testing.T) {
			underPoolModes(t, func(t *testing.T) {
				var ws QRWorkspace
				got := ws.Q(c.a)
				want := refFormThinQ(ws.w, ws.betas)
				requireSameBits(t, "Q", want, got)
			})
		})
	}
}

// TestGramSchmidtMatchesColumnCopies pins the in-place GramSchmidt to the
// Col/SetCol reference: same matrix bits and same rank.
func TestGramSchmidtMatchesColumnCopies(t *testing.T) {
	for _, c := range orthoCases() {
		t.Run(c.name, func(t *testing.T) {
			underPoolModes(t, func(t *testing.T) {
				want := c.a.Clone()
				wantRank := refGramSchmidt(want)
				got := c.a.Clone()
				if rank := GramSchmidt(got); rank != wantRank {
					t.Fatalf("rank %d, reference %d", rank, wantRank)
				}
				requireSameBits(t, "GramSchmidt", want, got)
			})
		})
	}
}

// TestQRWorkspaceReuse checks a reused workspace gives the same bits as a
// fresh one across changing shapes, and that QR is the workspace's Q.
func TestQRWorkspaceReuse(t *testing.T) {
	var ws QRWorkspace
	for _, c := range orthoCases() {
		want, _ := QR(c.a)
		requireSameBits(t, fmt.Sprintf("%s reused", c.name), want, ws.Q(c.a))
	}
}
