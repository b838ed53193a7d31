// Package parallel provides the shared goroutine pool used by the dense and
// sparse matrix kernels and the driver-side steps of the PCA algorithms.
//
// The design constraint is bit-reproducibility: every caller partitions its
// index space into contiguous chunks whose results are independent of chunk
// boundaries and scheduling order (each chunk writes only state it owns, and
// per-element floating-point reduction order never crosses a chunk
// boundary). Under that contract a run with the pool enabled is bit-identical
// to a sequential run, which keeps every simulated experiment reproduction
// stable while the real wall-clock drops on multi-core machines.
//
// Real-time parallelism here is orthogonal to the simulated cluster: the
// cost model charges exactly the same operations either way.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerWorker oversubscribes the chunk count for load balancing: slow
// chunks (e.g. the triangular loops of tridiagonalization) do not leave the
// other workers idle.
const chunksPerWorker = 4

var (
	sequential      atomic.Bool
	workersOverride atomic.Int32
)

// SetSequential forces For to run its body inline on the calling goroutine.
// Tests use it to compare parallel runs against a sequential reference; the
// contract is that results are bit-identical either way.
func SetSequential(on bool) { sequential.Store(on) }

// Sequential reports whether the pool is forced sequential.
func Sequential() bool { return sequential.Load() }

// SetWorkers overrides the worker count (0 restores the GOMAXPROCS default).
// Tests use it to exercise chunked execution even on single-core machines.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workersOverride.Store(int32(n))
}

// Workers returns the degree of parallelism For uses.
func Workers() int {
	if n := workersOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Runner is the interface form of For's chunk body. A closure literal passed
// to For escapes to the heap on every call — escape analysis sees it flow
// into the worker goroutines even when execution stays inline — which costs
// the hot kernels one allocation per invocation. Converting a pointer to an
// interface allocates nothing, so kernels that must be allocation-free in
// steady state implement Run on a pooled struct (carrying the would-be
// captures as fields) and dispatch through ForRunner instead.
type Runner interface {
	Run(lo, hi int)
}

// funcRunner lets For hand its closure to the scheduler as a Runner; a func
// value is pointer-shaped, so the conversion allocates nothing.
type funcRunner func(lo, hi int)

func (f funcRunner) Run(lo, hi int) { f(lo, hi) }

// For splits [0, n) into contiguous chunks of at least grain indices and runs
// fn(lo, hi) once per chunk, possibly concurrently. fn must only write state
// owned by its chunk, and the value it computes for an index must not depend
// on the chunk boundaries — then the result is bit-identical to fn(0, n).
//
// Small inputs (n <= grain), a single available worker, or the sequential
// knob all collapse to one inline fn(0, n) call with no goroutine overhead.
// Pick grain so a chunk amortizes scheduling: tens of microseconds of work.
// Note the closure itself still escapes (see Runner); allocation-sensitive
// callers use ForRunner.
func For(n, grain int, fn func(lo, hi int)) { schedule(n, grain, funcRunner(fn), nil) }

// ForRunner is For with the chunk body passed as a Runner instead of a
// closure. Chunking, scheduling, and the bit-reproducibility contract are
// identical to For; the only difference is that the inline fast path performs
// no allocation at the call site.
func ForRunner(n, grain int, r Runner) { schedule(n, grain, r, nil) }

// ForWorker is For with the executing worker's index (0 <= w < Workers())
// passed to fn, so fn can index per-worker scratch without synchronization.
// The same bit-reproducibility contract as For applies; in particular the
// values fn computes must not depend on which worker ran the chunk, which
// holds whenever per-worker scratch is fully initialized before it is read.
func ForWorker(n, grain int, fn func(worker, lo, hi int)) { schedule(n, grain, nil, fn) }

// schedule is the one chunk scheduler behind For, ForRunner and ForWorker.
// The body is fw when it is set, else r; only fw sees the worker index.
func schedule(n, grain int, r Runner, fw func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := Workers()
	if sequential.Load() || workers == 1 || n <= grain {
		runChunk(r, fw, 0, 0, n)
		return
	}
	chunk := (n + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	if chunk < grain {
		chunk = grain
	}
	chunks := (n + chunk - 1) / chunk
	if chunks <= 1 {
		runChunk(r, fw, 0, 0, n)
		return
	}
	if chunks < workers {
		workers = chunks
	}
	d := &dispatch{r: r, fw: fw, n: n, chunk: chunk}
	d.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer d.wg.Done()
			d.work(w)
		}()
	}
	d.work(0)
	d.wg.Wait()
}

// dispatch is the state one multi-worker schedule call shares with its
// workers, kept in one allocation.
type dispatch struct {
	r        Runner
	fw       func(worker, lo, hi int)
	n, chunk int
	next     atomic.Int64 // index of the next unclaimed chunk
	wg       sync.WaitGroup
}

// work claims chunks in ascending order until they run out or the abort
// flag trips, checking the flag before every claim.
func (d *dispatch) work(w int) {
	for !aborted() {
		lo := (int(d.next.Add(1)) - 1) * d.chunk
		if lo >= d.n {
			return
		}
		hi := lo + d.chunk
		if hi > d.n {
			hi = d.n
		}
		runChunk(d.r, d.fw, w, lo, hi)
	}
}

// runChunk runs one chunk on whichever body schedule was given.
func runChunk(r Runner, fw func(worker, lo, hi int), w, lo, hi int) {
	if fw != nil {
		fw(w, lo, hi)
		return
	}
	r.Run(lo, hi)
}
