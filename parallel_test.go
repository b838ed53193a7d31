package spca_test

import (
	"reflect"
	"testing"
	"time"

	"spca"
	"spca/internal/matrix"
	"spca/internal/parallel"
)

// TestFitDeterministicUnderParallelism fits every algorithm twice — once with
// the kernel pool forced sequential and one worker (so the MapReduce engine
// runs every task on the calling goroutine), and once with chunked parallel
// execution (4 workers, forced even on a single-core machine; the engine then
// runs its tasks on 4 workers too) — and requires the entire
// Result to be bit-identical: components, mean, error history, and all
// simulated-cluster metrics. This is the contract that lets the parallel
// kernels change real wall-clock time without perturbing a single number in
// the reproduced tables and figures.
func TestFitDeterministicUnderParallelism(t *testing.T) {
	y := spca.GenerateDataset(spca.DatasetSpec{Kind: spca.Diabetes, Rows: 150, Cols: 48, Rank: 4, Seed: 9})
	for _, alg := range []spca.Algorithm{
		spca.LocalPPCA,
		spca.SPCAMapReduce,
		spca.SPCASpark,
		spca.MahoutPCA,
		spca.MLlibPCA,
		spca.SVDBidiag,
	} {
		cfg := spca.Config{Algorithm: alg, Components: 4, MaxIter: 4}

		parallel.SetSequential(true)
		parallel.SetWorkers(1)
		seq, err := spca.Fit(y, cfg)
		parallel.SetWorkers(0)
		parallel.SetSequential(false)
		if err != nil {
			t.Fatalf("%s sequential: %v", alg, err)
		}

		parallel.SetWorkers(4)
		par, err := spca.Fit(y, cfg)
		parallel.SetWorkers(0)
		if err != nil {
			t.Fatalf("%s parallel: %v", alg, err)
		}

		for i, v := range seq.Components.Data {
			if v != par.Components.Data[i] {
				t.Fatalf("%s: component element %d differs: %v vs %v", alg, i, v, par.Components.Data[i])
			}
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: results differ under parallelism:\nseq: err=%v iters=%d metrics=%v\npar: err=%v iters=%d metrics=%v",
				alg, seq.Err, seq.Iterations, seq.Metrics, par.Err, par.Iterations, par.Metrics)
		}
	}
}

// BenchmarkParallelSpeedup measures the real-time speedup of the parallel
// kernels on a representative dense multiply and reports it as a metric. On a
// single-core machine this hovers around 1.0; on the multi-core machines the
// simulated cluster stands in for, it should exceed 2x.
func BenchmarkParallelSpeedup(b *testing.B) {
	rng := matrix.NewRNG(42)
	a := matrix.NormRnd(rng, 512, 512)
	c := matrix.NormRnd(rng, 512, 512)

	const reps = 3
	measure := func() float64 {
		a.Mul(c) // warm up caches and the pool
		start := time.Now()
		for r := 0; r < reps; r++ {
			a.Mul(c)
		}
		return time.Since(start).Seconds() / reps
	}

	for i := 0; i < b.N; i++ {
		parallel.SetSequential(true)
		seqSec := measure()
		parallel.SetSequential(false)
		parSec := measure()
		b.ReportMetric(seqSec/parSec, "speedup")
		b.ReportMetric(float64(parallel.Workers()), "workers")
	}
}
