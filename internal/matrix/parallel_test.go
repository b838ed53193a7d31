package matrix

import (
	"fmt"
	"math"
	"testing"

	"spca/internal/parallel"
)

// withForcedParallel runs f twice — once with the pool forced sequential and
// once with chunked execution forced (4 workers, even on a single-core
// machine) — and returns both results for bit-exact comparison.
func withForcedParallel(f func() *Dense) (seq, par *Dense) {
	parallel.SetSequential(true)
	seq = f()
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	par = f()
	parallel.SetWorkers(0)
	return seq, par
}

func requireBitIdentical(t *testing.T, name string, seq, par *Dense) {
	t.Helper()
	if seq.R != par.R || seq.C != par.C {
		t.Fatalf("%s: dims %dx%d vs %dx%d", name, seq.R, seq.C, par.R, par.C)
	}
	for i, v := range seq.Data {
		if v != par.Data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, v, par.Data[i])
		}
	}
}

func requireBitIdenticalVec(t *testing.T, name string, seq, par []float64) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: len %d vs %d", name, len(seq), len(par))
	}
	for i, v := range seq {
		if v != par[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, v, par[i])
		}
	}
}

// TestKernelsBitIdenticalUnderParallelism is the contract the whole PR rests
// on: chunked parallel execution must produce bit-for-bit the same floats as
// the sequential kernels, because the experiment reproductions assert exact
// simulated metrics.
func TestKernelsBitIdenticalUnderParallelism(t *testing.T) {
	rng := NewRNG(7)
	a := NormRnd(rng, 67, 53)
	b := NormRnd(rng, 53, 41)
	c := NormRnd(rng, 67, 41)

	seq, par := withForcedParallel(func() *Dense { return a.Mul(b) })
	requireBitIdentical(t, "Mul", seq, par)

	seq, par = withForcedParallel(func() *Dense { return a.MulT(c) })
	requireBitIdentical(t, "MulT", seq, par)

	seq, par = withForcedParallel(func() *Dense { return b.MulBT(b) })
	requireBitIdentical(t, "MulBT", seq, par)

	// Sparse kernels, with a low grain so chunking actually engages.
	sb := NewSparseBuilder(97)
	for i := 0; i < 80; i++ {
		var idx []int
		var vals []float64
		for j := i % 3; j < 97; j += 3 + i%5 {
			idx = append(idx, j)
			vals = append(vals, rng.NormFloat64())
		}
		sb.AddRow(idx, vals)
	}
	sp := sb.Build()
	dense := NormRnd(rng, 97, 13)
	mean := make([]float64, 97)
	for j := range mean {
		mean[j] = rng.NormFloat64()
	}

	seq, par = withForcedParallel(func() *Dense { return sp.MulDense(dense) })
	requireBitIdentical(t, "Sparse.MulDense", seq, par)

	seq, par = withForcedParallel(func() *Dense { return sp.CenteredMulDense(mean, dense) })
	requireBitIdentical(t, "Sparse.CenteredMulDense", seq, par)

	x := make([]float64, 80)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	parallel.SetSequential(true)
	vseq := sp.MulVecT(x)
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	vpar := sp.MulVecT(x)
	parallel.SetWorkers(0)
	requireBitIdenticalVec(t, "Sparse.MulVecT", vseq, vpar)
}

func TestQRBitIdenticalUnderParallelism(t *testing.T) {
	rng := NewRNG(11)
	a := NormRnd(rng, 90, 24)

	parallel.SetSequential(true)
	qSeq, rSeq := QR(a)
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	qPar, rPar := QR(a)
	parallel.SetWorkers(0)
	requireBitIdentical(t, "QR.Q", qSeq, qPar)
	requireBitIdentical(t, "QR.R", rSeq, rPar)

	seq, par := withForcedParallel(func() *Dense { return QRR(a) })
	requireBitIdentical(t, "QRR", seq, par)
}

func TestSymEigenBitIdenticalUnderParallelism(t *testing.T) {
	rng := NewRNG(13)
	g := NormRnd(rng, 40, 40)
	sym := g.MulT(g) // SPD, symmetric

	parallel.SetSequential(true)
	valsSeq, vecsSeq := SymEigen(sym)
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	valsPar, vecsPar := SymEigen(sym)
	parallel.SetWorkers(0)
	requireBitIdenticalVec(t, "SymEigen.vals", valsSeq, valsPar)
	requireBitIdentical(t, "SymEigen.vecs", vecsSeq, vecsPar)
}

func TestSolveSPDBitIdenticalUnderParallelism(t *testing.T) {
	rng := NewRNG(17)
	g := NormRnd(rng, 30, 12)
	spd := g.MulT(g).AddScaledIdentity(0.5)
	rhs := NormRnd(rng, 64, 12)

	parallel.SetSequential(true)
	seq, err1 := SolveSPD(spd, rhs)
	parallel.SetSequential(false)
	parallel.SetWorkers(4)
	par, err2 := SolveSPD(spd, rhs)
	parallel.SetWorkers(0)
	if err1 != nil || err2 != nil {
		t.Fatalf("solve errors: %v, %v", err1, err2)
	}
	requireBitIdentical(t, "SolveSPD", seq, par)
}

func TestReconTermsMatchesSequentialLoop(t *testing.T) {
	rng := NewRNG(19)
	w := NormRnd(rng, 83, 9)
	mean := make([]float64, 83)
	for j := range mean {
		mean[j] = rng.NormFloat64()
	}
	var idx []int
	var vals []float64
	for j := 1; j < 83; j += 4 {
		idx = append(idx, j)
		vals = append(vals, rng.NormFloat64())
	}
	row := SparseVector{Len: 83, Indices: idx, Values: vals}
	xi := make([]float64, 9)
	for k := range xi {
		xi[k] = rng.NormFloat64()
	}

	num := make([]float64, 83)
	den := make([]float64, 83)
	parallel.SetWorkers(4)
	ReconTerms(row, mean, w, xi, num, den)
	parallel.SetWorkers(0)

	nz := 0
	for j := 0; j < 83; j++ {
		recon := mean[j] + Dot(xi, w.Row(j))
		var yv float64
		if nz < row.NNZ() && row.Indices[nz] == j {
			yv = row.Values[nz]
			nz++
		}
		wantNum := yv - recon
		if wantNum < 0 {
			wantNum = -wantNum
		}
		wantDen := yv
		if wantDen < 0 {
			wantDen = -wantDen
		}
		if num[j] != wantNum || den[j] != wantDen {
			t.Fatalf("column %d: got (%v,%v) want (%v,%v)", j, num[j], den[j], wantNum, wantDen)
		}
	}
}

// TestConcurrentKernelCallers runs the pooled-body kernels from several
// goroutines at once, the way serving and the simulated map tasks call them,
// with chunked execution forced on every call. Each goroutine owns its
// outputs and SPDWorkspace and shares the read-only operands; every result
// must match the sequential reference bit for bit.
func TestConcurrentKernelCallers(t *testing.T) {
	rng := NewRNG(23)
	withZeros := func(m *Dense) *Dense {
		for i := 0; i < len(m.Data); i += 7 {
			m.Data[i] = 0
		}
		return m
	}
	a := withZeros(NormRnd(rng, 96, 64))
	b := NormRnd(rng, 64, 24)
	tall := withZeros(NormRnd(rng, 200, 24))
	tallB := NormRnd(rng, 200, 16)
	bt := NormRnd(rng, 50, 64)
	g := NormRnd(rng, 40, 24)
	spd := g.MulT(g).AddScaledIdentity(0.5)
	rhs := NormRnd(rng, 96, 24)

	type outs struct{ mul, mulT, mulBT, solve *Dense }
	run := func(o outs, ws *SPDWorkspace) error {
		a.MulInto(b, o.mul)
		tall.MulTInto(tallB, o.mulT)
		a.MulBTInto(bt, o.mulBT)
		return SolveSPDInto(spd, rhs, o.solve, ws)
	}
	newOuts := func() outs {
		return outs{NewDense(96, 24), NewDense(24, 16), NewDense(96, 50), NewDense(96, 24)}
	}

	parallel.SetSequential(true)
	want := newOuts()
	var wantWS SPDWorkspace
	err := run(want, &wantWS)
	parallel.SetSequential(false)
	if err != nil {
		t.Fatal(err)
	}

	parallel.SetWorkers(4)
	defer parallel.SetWorkers(0)
	const callers, rounds = 6, 10
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			got := newOuts()
			var ws SPDWorkspace
			for r := 0; r < rounds; r++ {
				if err := run(got, &ws); err != nil {
					errs <- err
					return
				}
				for _, p := range []struct {
					name      string
					got, want *Dense
				}{
					{"MulInto", got.mul, want.mul},
					{"MulTInto", got.mulT, want.mulT},
					{"MulBTInto", got.mulBT, want.mulBT},
					{"SolveSPDInto", got.solve, want.solve},
				} {
					for i, v := range p.want.Data {
						if math.Float64bits(p.got.Data[i]) != math.Float64bits(v) {
							errs <- fmt.Errorf("%s round %d: element %d is %v, sequential %v", p.name, r, i, p.got.Data[i], v)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
