package mapred

import (
	"fmt"
	"testing"

	"spca/internal/cluster"
	"spca/internal/matrix"
)

// denseVecJob is a miniature YtXJob: int records scatter d-wide vector
// partials over a small key range (with one wide d²-style key at -1 and a
// Combine merging in-task duplicates), so it exercises every dense-path
// feature at once — negative MinKey, WideKeys, in-task merges, and the
// vector codec.
func denseVecJob(keys, d int) Job[int, int, []float64, []float64] {
	return Job[int, int, []float64, []float64]{
		Name: "denseVec",
		NewMapper: func(task int) Mapper[int, int, []float64] {
			return MapperFunc[int, int, []float64](func(rec int, out Emitter[int, []float64]) {
				v := make([]float64, d)
				for i := range v {
					v[i] = float64(rec*d + i + 1)
				}
				out.Emit(rec%keys, v)
				wide := make([]float64, d*d)
				for i := range wide {
					wide[i] = float64(rec + i)
				}
				out.Emit(-1, wide)
				out.AddOps(int64(d + d*d))
			})
		},
		Combine: func(a, b []float64) []float64 {
			matrix.AXPY(1, b, a)
			return a
		},
		Reduce: func(k int, vs [][]float64, o Ops) []float64 {
			out := make([]float64, len(vs[0]))
			for _, v := range vs {
				matrix.AXPY(1, v, out)
				o.AddOps(int64(len(v)))
			}
			return out
		},
		InputBytes:  func(int) int64 { return 16 },
		KeyBytes:    BytesOfInt,
		ValueBytes:  BytesOfVec,
		ResultBytes: BytesOfVec,
		Dense:       &DenseSpec{MinKey: -1, Keys: keys + 1, Width: d, WideKeys: map[int]int{-1: d * d}},
	}
}

// denseScalarJob is a miniature meanJob: scalar values over a dense range.
func denseScalarJob(keys int) Job[int, int, float64, float64] {
	return Job[int, int, float64, float64]{
		Name: "denseScalar",
		NewMapper: func(task int) Mapper[int, int, float64] {
			return MapperFunc[int, int, float64](func(rec int, out Emitter[int, float64]) {
				out.Emit(rec%keys, float64(rec)+0.5)
				out.AddOps(1)
			})
		},
		Combine: func(a, b float64) float64 { return a + b },
		Reduce: func(k int, vs []float64, o Ops) float64 {
			var s float64
			for _, v := range vs {
				s += v
				o.AddOps(1)
			}
			return s
		},
		InputBytes: func(int) int64 { return 16 },
		KeyBytes:   BytesOfInt,
		ValueBytes: BytesOfFloat64,
		Dense:      &DenseSpec{MinKey: 0, Keys: keys, Width: 1},
	}
}

func denseTestPlans() map[string]*cluster.FaultPlan {
	return map[string]*cluster.FaultPlan{
		"fault-free": nil,
		"failures":   {Seed: 7, TaskFailureRate: 0.25},
		"node-loss":  {Seed: 11, NodeLossRate: 0.2, TaskFailureRate: 0.1},
		"stragglers": {Seed: 13, StragglerRate: 0.3},
		"speculative": {
			Seed: 17, StragglerRate: 0.3, SpeculativeExecution: true,
			TaskFailureRate: 0.15,
		},
		"corruption": {Seed: 19, CorruptionRate: 0.1, TaskFailureRate: 0.1},
	}
}

// TestDenseMatchesGenericVec pins the tentpole invariant: for every fault
// plan, the flat-slab fast path must produce bit-identical results AND
// bit-identical cluster metrics (every simulated-time charge, every recovery
// and corruption counter) to the generic map-based shuffle.
func TestDenseMatchesGenericVec(t *testing.T) {
	input := make([]int, 300)
	for i := range input {
		input[i] = i
	}
	for name, plan := range denseTestPlans() {
		t.Run(name, func(t *testing.T) {
			gen := testEngine()
			gen.DisableDense = true
			gen.Faults = plan
			fast := testEngine()
			fast.Faults = plan

			wantRes, wantErr := Run(gen, denseVecJob(37, 4), input)
			gotRes, gotErr := Run(fast, denseVecJob(37, 4), input)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: generic %v, dense %v", wantErr, gotErr)
			}
			if wantErr == nil {
				if len(gotRes) != len(wantRes) {
					t.Fatalf("key count: generic %d, dense %d", len(wantRes), len(gotRes))
				}
				for k, wv := range wantRes {
					gv, ok := gotRes[k]
					if !ok || len(gv) != len(wv) {
						t.Fatalf("key %d: generic %v, dense %v", k, wv, gv)
					}
					for i := range wv {
						if gv[i] != wv[i] {
							t.Fatalf("key %d[%d]: generic %v, dense %v (not bit-identical)", k, i, wv[i], gv[i])
						}
					}
				}
			}
			if wm, gm := gen.Cluster.Metrics(), fast.Cluster.Metrics(); wm != gm {
				t.Fatalf("metrics diverge:\n generic %+v\n dense   %+v", wm, gm)
			}
		})
	}
}

// TestDenseMatchesGenericScalar is the float64-codec differential.
func TestDenseMatchesGenericScalar(t *testing.T) {
	input := make([]int, 500)
	for i := range input {
		input[i] = i
	}
	for name, plan := range denseTestPlans() {
		t.Run(name, func(t *testing.T) {
			gen := testEngine()
			gen.DisableDense = true
			gen.Faults = plan
			fast := testEngine()
			fast.Faults = plan

			wantRes, wantErr := Run(gen, denseScalarJob(101), input)
			gotRes, gotErr := Run(fast, denseScalarJob(101), input)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: generic %v, dense %v", wantErr, gotErr)
			}
			if wantErr == nil {
				if len(gotRes) != len(wantRes) {
					t.Fatalf("key count: generic %d, dense %d", len(wantRes), len(gotRes))
				}
				for k, wv := range wantRes {
					if gv := gotRes[k]; gv != wv {
						t.Fatalf("key %d: generic %v, dense %v", k, wv, gv)
					}
				}
			}
			if wm, gm := gen.Cluster.Metrics(), fast.Cluster.Metrics(); wm != gm {
				t.Fatalf("metrics diverge:\n generic %+v\n dense   %+v", wm, gm)
			}
		})
	}
}

// TestDenseFailedAttemptReset forces map-attempt failures and checks the
// slab rewind: a retry must reproduce exactly the payload a fresh attempt
// would, or the commit/consume digest handshake (and the result) breaks.
// FailedAttempts > 0 asserts the reset path actually ran.
func TestDenseFailedAttemptReset(t *testing.T) {
	input := make([]int, 200)
	for i := range input {
		input[i] = i
	}
	plan := &cluster.FaultPlan{Seed: 23, TaskFailureRate: 0.3, MaxAttempts: 8}
	gen := testEngine()
	gen.DisableDense = true
	gen.Faults = plan
	fast := testEngine()
	fast.Faults = plan

	wantRes, err := Run(gen, denseVecJob(11, 3), input)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := Run(fast, denseVecJob(11, 3), input)
	if err != nil {
		t.Fatal(err)
	}
	m := fast.Cluster.Metrics()
	if m.FailedAttempts == 0 {
		t.Fatal("fault plan injected no failures; the reset path was not exercised")
	}
	for k, wv := range wantRes {
		gv := gotRes[k]
		for i := range wv {
			if gv[i] != wv[i] {
				t.Fatalf("key %d[%d]: generic %v, dense %v after retries", k, i, wv[i], gv[i])
			}
		}
	}
	if wm := gen.Cluster.Metrics(); wm != m {
		t.Fatalf("metrics diverge under retries:\n generic %+v\n dense   %+v", wm, m)
	}
}

// projStyleJob mimics the rsvd projection job: one unique key per record, no
// Combine, Reduce returning vs[0] — the shape whose results alias slab rows.
func projStyleJob(n, d int) Job[int, int, []float64, []float64] {
	return Job[int, int, []float64, []float64]{
		Name: "denseProj",
		NewMapper: func(task int) Mapper[int, int, []float64] {
			return MapperFunc[int, int, []float64](func(rec int, out Emitter[int, []float64]) {
				v := make([]float64, d)
				for i := range v {
					v[i] = float64(rec) + float64(i)/8
				}
				out.Emit(rec, v)
				out.AddOps(int64(d))
			})
		},
		Reduce:      func(_ int, vs [][]float64, _ Ops) []float64 { return vs[0] },
		KeyBytes:    BytesOfInt,
		ValueBytes:  BytesOfVec,
		ResultBytes: BytesOfVec,
		Dense:       &DenseSpec{MinKey: 0, Keys: n, Width: d},
	}
}

// TestDenseSlabReuseAliasing pins the pooled-slab lifetime contract: a
// second Run on the same engine reuses the first Run's slabs, so the first
// result's vectors are views that the second Run overwrites. Drivers copy
// before the next Run (all callers do); this test asserts both the reuse
// (pointer identity — the regression would be a silent per-Run reallocation)
// and the correctness of the second result.
func TestDenseSlabReuseAliasing(t *testing.T) {
	const n, d = 64, 5
	input := make([]int, n)
	for i := range input {
		input[i] = i
	}
	e := testEngine()
	job := projStyleJob(n, d)

	first, err := Run(e, job, input)
	if err != nil {
		t.Fatal(err)
	}
	firstView := first[0]
	firstVal := firstView[0]

	second, err := Run(e, job, input)
	if err != nil {
		t.Fatal(err)
	}
	if &second[0][0] != &firstView[0] {
		t.Fatal("second Run did not reuse the first Run's slab row for key 0 — slab pooling regressed")
	}
	if second[0][0] != firstVal {
		t.Fatalf("second Run corrupted key 0: got %v want %v", second[0][0], firstVal)
	}
	for k, v := range second {
		want := float64(k)
		if v[0] != want {
			t.Fatalf("second Run key %d = %v, want %v", k, v[0], want)
		}
	}
}

// TestDenseEmitterZeroAllocs is the allocation gate of the tentpole: with a
// warm slab, a full attempt cycle (reset + emits, including in-task merges)
// must allocate nothing.
func TestDenseEmitterZeroAllocs(t *testing.T) {
	const keys, d = 40, 6
	spec := &DenseSpec{MinKey: -1, Keys: keys + 1, Width: d, WideKeys: map[int]int{-1: d * d}}
	slab := new(denseSlab)
	slab.prepare(spec)
	em := &denseEmitter[[]float64]{
		name: "gate", slab: slab,
		combine: func(a, b []float64) []float64 {
			matrix.AXPY(1, b, a)
			return a
		},
		cd: vecCodec,
		kb: BytesOfInt,
		vb: BytesOfVec,
	}
	v := make([]float64, d)
	wide := make([]float64, d*d)
	attempt := func() {
		em.reset()
		for k := 0; k < keys; k++ {
			em.Emit(k, v)
			em.Emit(k, v) // duplicate: exercises the merge path
		}
		em.Emit(-1, wide)
		em.AddOps(1)
	}
	attempt() // warm the slab so claim never grows
	if allocs := testing.AllocsPerRun(100, attempt); allocs != 0 {
		t.Fatalf("dense emitter steady state: %v allocs/op, want 0", allocs)
	}
}

// TestDenseKeyLessMatchesSprintOrder pins the reduce partitioner: dense key
// order must reproduce the generic path's fmt.Sprint string order exactly,
// or fault plans would draw different per-task coordinates.
func TestDenseKeyLessMatchesSprintOrder(t *testing.T) {
	keys := []int{-1000, -101, -11, -5, -2, -1, 0, 1, 2, 5, 9, 10, 11, 19, 99, 100, 101, 999, 1000}
	for _, a := range keys {
		for _, b := range keys {
			want := fmt.Sprint(a) < fmt.Sprint(b)
			if got := denseKeyLess(a, b); got != want {
				t.Fatalf("denseKeyLess(%d, %d) = %v, fmt.Sprint order says %v", a, b, got, want)
			}
		}
	}
}

// TestDensePanics pins the misuse guards: out-of-range keys and duplicate
// emits without a Combine must fail loudly, not corrupt accounting.
func TestDensePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	spec := &DenseSpec{MinKey: 0, Keys: 4, Width: 2}
	slab := new(denseSlab)
	slab.prepare(spec)
	em := &denseEmitter[[]float64]{name: "guard", slab: slab, cd: vecCodec, kb: BytesOfInt, vb: BytesOfVec}
	mustPanic("out-of-range", func() { em.Emit(9, []float64{1, 2}) })
	mustPanic("over-wide", func() { em.Emit(0, []float64{1, 2, 3}) })
	em.Emit(1, []float64{1, 2})
	mustPanic("dup-no-combine", func() { em.Emit(1, []float64{3, 4}) })
	mustPanic("row-no-combine", func() { em.Row(2, 2) })
	em.combine = func(a, b []float64) []float64 { return a }
	em.Row(2, 2)
	mustPanic("row-width-mismatch", func() { em.Row(2, 1) })
	mustPanic("row-over-wide", func() { em.Row(3, 3) })
	gen := newEmitter[int, []float64](nil)
	mustPanic("generic-row-no-combine", func() { gen.Row(0, 2) })
}

// denseRowJob is denseVecJob with a mapper that accumulates in place through
// RowEmitter.Row instead of emitting a fresh vector per record. The name is
// kept so both jobs draw the same faults.
func denseRowJob(keys, d int) Job[int, int, []float64, []float64] {
	job := denseVecJob(keys, d)
	job.NewMapper = func(task int) Mapper[int, int, []float64] {
		return MapperFunc[int, int, []float64](func(rec int, out Emitter[int, []float64]) {
			acc := out.(RowEmitter)
			v := acc.Row(rec%keys, d)
			for i := range v {
				v[i] += float64(rec*d + i + 1)
			}
			wide := acc.Row(-1, d*d)
			for i := range wide {
				wide[i] += float64(rec + i)
			}
			out.AddOps(int64(d + d*d))
		})
	}
	return job
}

// TestDenseRowMatchesEmit: accumulating through Row — in the slab on the
// flat-slab path, in the value map on the generic path — gives the results
// and cluster metrics of emitting every partial and combining, bit for bit,
// under every fault plan (retried attempts must re-claim their rows zeroed).
func TestDenseRowMatchesEmit(t *testing.T) {
	input := make([]int, 300)
	for i := range input {
		input[i] = i
	}
	for name, plan := range denseTestPlans() {
		t.Run(name, func(t *testing.T) {
			run := func(job Job[int, int, []float64, []float64], disableDense bool) (map[int][]float64, cluster.Metrics, error) {
				eng := testEngine()
				eng.DisableDense = disableDense
				eng.Faults = plan
				res, err := Run(eng, job, input)
				return res, eng.Cluster.Metrics(), err
			}
			wantRes, wantM, wantErr := run(denseVecJob(37, 4), false)
			for _, disable := range []bool{false, true} {
				gotRes, gotM, gotErr := run(denseRowJob(37, 4), disable)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("generic=%v: error mismatch: emit %v, row %v", disable, wantErr, gotErr)
				}
				if gotM != wantM {
					t.Fatalf("generic=%v: metrics diverge:\n emit %+v\n row  %+v", disable, wantM, gotM)
				}
				if len(gotRes) != len(wantRes) {
					t.Fatalf("generic=%v: key count: emit %d, row %d", disable, len(wantRes), len(gotRes))
				}
				for k, wv := range wantRes {
					gv := gotRes[k]
					if len(gv) != len(wv) {
						t.Fatalf("generic=%v: key %d: emit %v, row %v", disable, k, wv, gv)
					}
					for i := range wv {
						if gv[i] != wv[i] {
							t.Fatalf("generic=%v: key %d[%d]: emit %v, row %v", disable, k, i, wv[i], gv[i])
						}
					}
				}
			}
		})
	}
}

// TestDenseRowsStayPut pins the stable-row contract: a row stays where it was
// claimed, holding what the mapper wrote, however many rows the attempt
// claims after it — including a row wider than a chunk, which gets a chunk
// of its own.
func TestDenseRowsStayPut(t *testing.T) {
	const keys, d, wideW = 3000, 8, chunkFloats + 300
	spec := &DenseSpec{MinKey: -1, Keys: keys + 1, Width: d, WideKeys: map[int]int{-1: wideW}}
	em := NewTaskEmitter(spec, func(a, b []float64) []float64 {
		matrix.AXPY(1, b, a)
		return a
	})
	first := em.Row(0, d)
	for i := range first {
		first[i] = float64(i + 1)
	}
	wide := em.Row(-1, wideW)
	wide[wideW-1] = 7
	for k := 1; k < keys; k++ {
		em.Row(k, d)[0] = float64(k)
	}
	if got := em.Row(0, d); &got[0] != &first[0] {
		t.Fatal("the first claimed row moved after later claims")
	}
	for i, v := range first {
		if v != float64(i+1) {
			t.Fatalf("first row [%d] = %v after later claims, want %v", i, v, float64(i+1))
		}
	}
	if got := em.Row(-1, wideW); &got[0] != &wide[0] || got[wideW-1] != 7 {
		t.Fatal("the wide row moved or lost its contents after later claims")
	}
	if n := len(em.slab.chunks); n < 3 {
		t.Fatalf("the attempt filled %d chunks; the test needs several", n)
	}
}

// oneKeyJob is a Keys=1 scalar job, the shape of the Frobenius and ss3 jobs.
func oneKeyJob() Job[int, int, float64, float64] {
	job := denseScalarJob(1)
	job.Name = "denseOneKey"
	return job
}

// slabStorage lists the storage of the engine's pooled slabs — each chunk's
// first element and length, and the index and row tables' capacities — so
// two snapshots are equal only if no slab storage was allocated in between.
func slabStorage(e *Engine) []string {
	var out []string
	for _, s := range e.slabs {
		for _, c := range s.chunks {
			out = append(out, fmt.Sprintf("%p/%d", &c[0], len(c)))
		}
		out = append(out, fmt.Sprintf("idx %d rows %d", cap(s.idx), cap(s.rows)))
	}
	return out
}

// TestDenseSlabsSharedAcrossShapes: one engine pools one set of slabs for
// every dense job, so a Keys=1 job followed by a wide job of as many splits
// reuses the same slab structs, and a warm second Run of either shape
// allocates no slab storage.
func TestDenseSlabsSharedAcrossShapes(t *testing.T) {
	const n, d = 640, 6
	input := make([]int, n)
	for i := range input {
		input[i] = i
	}
	e := testEngine()
	if _, err := Run(e, oneKeyJob(), input); err != nil {
		t.Fatal(err)
	}
	before := map[*denseSlab]bool{}
	for _, s := range e.slabs {
		before[s] = true
	}
	if _, err := Run(e, projStyleJob(n, d), input); err != nil {
		t.Fatal(err)
	}
	if len(e.slabs) != len(before) {
		t.Fatalf("the wide job left %d pooled slabs, want the %d of the Keys=1 job", len(e.slabs), len(before))
	}
	for _, s := range e.slabs {
		if !before[s] {
			t.Fatal("the wide job checked out a new slab instead of reusing the Keys=1 job's")
		}
	}
	for _, run := range []func() error{
		func() error { _, err := Run(e, oneKeyJob(), input); return err },
		func() error { _, err := Run(e, projStyleJob(n, d), input); return err },
	} {
		warm := slabStorage(e)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if got := slabStorage(e); fmt.Sprint(got) != fmt.Sprint(warm) {
			t.Fatalf("a warm Run allocated slab storage:\n before %v\n after  %v", warm, got)
		}
	}
}

// TestDenseColdChunkBound: on a cold Run each slab's chunks hold at most the
// floats its task claimed plus one chunk — the storage is sized by what a
// task touches and is never regrown by a factor. Each task claims 160 rows
// of 8, a chunk and a quarter.
func TestDenseColdChunkBound(t *testing.T) {
	const n, d = 640, 8
	input := make([]int, n)
	for i := range input {
		input[i] = i
	}
	e := testEngine()
	e.Splits = 4
	job := projStyleJob(n, d)
	if _, err := Run(e, job, input); err != nil {
		t.Fatal(err)
	}
	chunk := job.Dense.chunk()
	for i, s := range e.slabs {
		var claimed, held int
		for _, r := range s.rows {
			claimed += int(r.n)
		}
		for _, c := range s.chunks {
			held += len(c)
		}
		if claimed <= chunk {
			t.Fatalf("slab %d claimed %d floats, under one %d-float chunk; the test needs several", i, claimed, chunk)
		}
		if held > claimed+chunk {
			t.Fatalf("slab %d holds %d floats for %d claimed, more than one %d-float chunk over", i, held, claimed, chunk)
		}
	}
}
