package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolNeverDropsAndIsConcurrencySafe(t *testing.T) {
	// mk runs outside the pool's lock, concurrently, so the count is atomic.
	var made atomic.Int64
	p := NewPool(func() *[]float64 {
		made.Add(1)
		s := make([]float64, 8)
		return &s
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v := p.Get()
				p.Put(v)
			}
		}()
	}
	wg.Wait()
	// Drain and refill: at most 8 concurrent holders ever existed, and the
	// pool must hand those same values back without making new ones.
	before := made.Load()
	var held []*[]float64
	for i := int64(0); i < before; i++ {
		held = append(held, p.Get())
	}
	if got := made.Load(); got != before {
		t.Fatalf("draining the pool made %d new values", got-before)
	}
	for _, v := range held {
		p.Put(v)
	}
}

func TestForWorkerMatchesForAndBoundsWorkerIndex(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 3} {
		SetWorkers(workers)
		n := 1000
		got := make([]int, n)
		ForWorker(n, 10, func(w, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d out of [0,%d)", w, workers)
			}
			for i := lo; i < hi; i++ {
				got[i] = i * i
			}
		})
		for i := range got {
			if got[i] != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], i*i)
			}
		}
	}
}
