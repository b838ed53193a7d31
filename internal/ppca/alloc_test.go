package ppca

import (
	"testing"

	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/parallel"
)

// nopEmitter satisfies mapred.Emitter for steady-state Map measurements of
// mappers that emit only from Cleanup, so Map sees no emitter traffic beyond
// op accounting.
type nopEmitter[K comparable, V any] struct{}

func (nopEmitter[K, V]) Emit(K, V)    {}
func (nopEmitter[K, V]) AddOps(int64) {}

func allocTestDriver(t *testing.T, n, dims, d int) (*matrix.Sparse, *emDriver) {
	t.Helper()
	rng := matrix.NewRNG(99)
	y := randomSparseMat(rng, n, dims, 0.3)
	mean := y.ColMeans()
	em := newEMDriver(DefaultOptions(d), n, dims, mean, y.CenteredFrobeniusSq(mean))
	if err := em.prepare(); err != nil {
		t.Fatal(err)
	}
	return y, em
}

// TestYtxMapperMapZeroAllocSteadyState: the consolidated YtX mapper
// accumulates in place in the rows of a real flat-slab emitter. Once one pass
// has grown the task's slab, a whole attempt — slab reset, every Map call and
// Cleanup — allocates nothing. The mapper calls no pool kernel, so the gate
// holds without parallel.SetSequential.
func TestYtxMapperMapZeroAllocSteadyState(t *testing.T) {
	y, em := allocTestDriver(t, 60, 24, 4)
	scr := newMRScratch(1, em.d)
	emit := mapred.NewTaskEmitter(scr.denseYtX(y.C, em.d), sumVec)
	m := &ytxMapper{em: em, meanProp: true, d: em.d, scr: scr.tasks[0]}
	pass := func() {
		emit.Reset()
		for i := 0; i < y.R; i++ {
			m.Map(y.Row(i), emit)
		}
		m.Cleanup(emit)
	}
	pass()
	allocs := testing.AllocsPerRun(10, pass)
	if allocs != 0 {
		t.Fatalf("steady-state ytxMapper attempt allocated %v times, want 0", allocs)
	}
}

// TestSS3MapperMapZeroAllocSteadyState: same property for the ss3 mapper in
// its optimized (associative) configuration.
func TestSS3MapperMapZeroAllocSteadyState(t *testing.T) {
	parallel.SetSequential(true)
	defer parallel.SetSequential(false)
	y, em := allocTestDriver(t, 60, 24, 4)
	scr := newTaskScratches(1, em.d)[0]
	m := &ss3Mapper{em: em, c: em.c, meanProp: true, assoc: true, d: em.d, scr: scr}
	emit := nopEmitter[int, float64]{}
	for i := 0; i < y.R; i++ {
		m.Map(y.Row(i), emit)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < y.R; i++ {
			m.Map(y.Row(i), emit)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ss3Mapper.Map pass allocated %v times, want 0", allocs)
	}
}
