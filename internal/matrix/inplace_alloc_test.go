package matrix

import (
	"runtime"
	"testing"

	"spca/internal/parallel"
)

// TestInPlaceKernelsZeroAllocs is the allocation gate for the hot in-place
// kernels: on warm workspaces MulInto, MulTInto, MulBTInto, and SolveSPDInto
// must perform zero allocations per call. The gate measures the dispatch
// path, so it forces sequential mode: the truly-parallel path inevitably
// allocates for its worker goroutines (on every kernel, including
// SolveSPDInto), but the per-call closure escape this gate guards against
// happened on the inline path too — it is the caller-side allocation the
// pooled Runner bodies exist to eliminate.
func TestInPlaceKernelsZeroAllocs(t *testing.T) {
	parallel.SetSequential(true)
	defer parallel.SetSequential(false)

	rng := NewRNG(11)
	const n = 64
	a := NormRnd(rng, n, n)
	b := NormRnd(rng, n, n)
	out := NewDense(n, n)
	spd := a.MulT(a)
	spd.AddScaledIdentity(float64(n))
	rhs := NormRnd(rng, 16, n)
	sol := NewDense(16, n)
	var ws SPDWorkspace

	cases := []struct {
		name string
		fn   func()
	}{
		{"MulInto", func() { a.MulInto(b, out) }},
		{"MulTInto", func() { a.MulTInto(b, out) }},
		{"MulBTInto", func() { a.MulBTInto(b, out) }},
		{"SolveSPDInto", func() {
			if err := SolveSPDInto(spd, rhs, sol, &ws); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		c.fn() // warm pools and workspaces outside the measured runs
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestForRunnerMatchesFor checks the Runner dispatch path chunks identically
// to the closure path, including under forced multi-worker chunking.
func TestForRunnerMatchesFor(t *testing.T) {
	parallel.SetWorkers(4)
	defer parallel.SetWorkers(0)
	rng := NewRNG(12)
	a := NormRnd(rng, 97, 53)
	b := NormRnd(rng, 53, 41)
	want := a.Mul(b)
	got := NewDense(97, 41)
	a.MulInto(b, got)
	if want.MaxAbsDiff(got) != 0 {
		t.Fatal("pooled Runner dispatch not bit-identical to allocating path")
	}
	gotT := NewDense(53, 53)
	wantT := a.MulT(a)
	a.MulTInto(a, gotT)
	if wantT.MaxAbsDiff(gotT) != 0 {
		t.Fatal("MulTInto Runner dispatch not bit-identical")
	}
}

// TestGramSchmidtZeroAllocs gates the in-place Gram–Schmidt: no per-column
// copies and no coefficient buffer on the heap, including the blocked path
// for more than colBlock columns.
func TestGramSchmidtZeroAllocs(t *testing.T) {
	rng := NewRNG(13)
	for _, a := range []*Dense{NormRnd(rng, 1250, 26), NormRnd(rng, 300, colBlock+6)} {
		if allocs := testing.AllocsPerRun(20, func() { GramSchmidt(a) }); allocs != 0 {
			t.Errorf("GramSchmidt %dx%d: %v allocs/op, want 0", a.R, a.C, allocs)
		}
	}
}

// TestQRWorkspaceZeroAllocs gates the reused QR workspace on the inline
// path: a warm workspace factors a same-shaped input with no allocation.
func TestQRWorkspaceZeroAllocs(t *testing.T) {
	parallel.SetSequential(true)
	defer parallel.SetSequential(false)
	a := NormRnd(NewRNG(14), 5000, 26)
	var ws QRWorkspace
	ws.Q(a)
	if allocs := testing.AllocsPerRun(5, func() { ws.Q(a) }); allocs != 0 {
		t.Errorf("QRWorkspace.Q: %v allocs/op, want 0", allocs)
	}
}

// TestQRWorkspaceParallelBytesFlat gates the multi-worker path: the only
// allocations left are the pool's worker hand-offs, at most four parallel
// sweeps per column, so bytes per call must not grow with the row count.
// The flop grain decides how many sweeps go parallel and it depends on m,
// so the two sizes may differ by that bounded dispatch overhead; anything
// sized by m (a Q copy, a column copy, even one float per row) fails.
func TestQRWorkspaceParallelBytesFlat(t *testing.T) {
	parallel.SetWorkers(4)
	defer parallel.SetWorkers(0)
	const n, small, large = 26, 1000, 8000
	perCall := func(m int) uint64 {
		a := NormRnd(NewRNG(15), m, n)
		var ws QRWorkspace
		ws.Q(a)
		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			ws.Q(a)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	bSmall, bLarge := perCall(small), perCall(large)
	t.Logf("bytes/call: m=%d %d, m=%d %d", small, bSmall, large, bLarge)
	if bLarge >= bSmall+8*(large-small) {
		t.Errorf("QRWorkspace.Q bytes/call grow with rows: m=%d %d, m=%d %d", small, bSmall, large, bLarge)
	}
}
