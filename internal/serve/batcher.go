package serve

import (
	"errors"
	"sync"

	"spca/internal/matrix"
	"spca/internal/parallel"
)

// op selects the projection a request wants. The values double as the binary
// protocol's opcode byte.
type op byte

const (
	opTransform   op = 1 // rows in data space -> latent positions
	opReconstruct op = 2 // latent positions -> data space
)

// ErrClosed is returned for requests submitted after the batcher drained.
var ErrClosed = errors.New("serve: server is shutting down")

// request is one unit of batched work. Callers own a request for the
// duration of a connection and reuse it frame after frame (the binary
// sessions pool them), so the steady-state serving path allocates nothing.
// in/out are row-major float slices; the batcher fills out and outCols.
type request struct {
	entry *Entry
	op    op
	rows  int
	cols  int
	in    []float64 // rows*cols, caller-owned
	out   []float64 // rows*outCols, caller-provided backing (grown by grow())
	// outCols is the served row width: d for transform, D for reconstruct.
	outCols int
	err     error
	done    chan struct{} // cap 1, strictly alternating submit/wait
}

// newRequest returns a request with its completion channel wired.
func newRequest() *request { return &request{done: make(chan struct{}, 1)} }

// grow returns s resized to n, reusing capacity.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// batcher coalesces concurrent projection requests into single matrix calls.
// Submitters append to a double-buffered queue and kick the loop goroutine;
// the loop drains the whole queue, groups adjacent requests that share a
// (model entry, op, width) key, copies each group into one scratch matrix,
// runs ONE TransformDenseInto/ReconstructInto over it, and scatters the rows
// back with parallel.ForRunner. Scratch matrices grow to the peak batch size
// and are reused, so a warm batcher performs no allocation per request.
type batcher struct {
	mu     sync.Mutex
	queue  []*request
	free   []*request // spare backing array for the queue swap
	kick   chan struct{}
	stop   chan struct{}
	closed bool
	wg     sync.WaitGroup

	// loop-goroutine scratch: batch input/output matrices, reused.
	inScratch  matrix.Dense
	outScratch matrix.Dense
}

func newBatcher() *batcher {
	b := &batcher{kick: make(chan struct{}, 1), stop: make(chan struct{})}
	b.wg.Add(1)
	go b.loop()
	return b
}

// do submits req and blocks until the batch containing it completes.
func (b *batcher) do(req *request) error {
	req.err = nil
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.queue = append(b.queue, req)
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
	<-req.done
	return req.err
}

// close drains pending requests and stops the loop. Requests submitted after
// close fail with ErrClosed; requests already queued complete normally — the
// graceful-shutdown contract.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()
}

func (b *batcher) loop() {
	defer b.wg.Done()
	for {
		select {
		case <-b.kick:
		case <-b.stop:
			// Final drain: the queue is sealed (closed=true), so one more
			// sweep completes everything in flight.
			b.sweep()
			return
		}
		b.sweep()
	}
}

// sweep drains the queue once and processes it group by group.
func (b *batcher) sweep() {
	b.mu.Lock()
	batch := b.queue
	b.queue = b.free[:0]
	b.mu.Unlock()
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && sameGroup(batch[i], batch[j]) {
			j++
		}
		b.run(batch[i:j])
		i = j
	}
	for i := range batch {
		batch[i] = nil // drop request refs before reusing the backing array
	}
	b.mu.Lock()
	b.free = batch[:0]
	b.mu.Unlock()
}

// sameGroup reports whether two requests can share one matrix call.
func sameGroup(a, c *request) bool {
	return a.entry == c.entry && a.op == c.op && a.cols == c.cols
}

// run executes one coalesced group: gather rows, one projection, scatter.
func (b *batcher) run(group []*request) {
	total := 0
	for _, r := range group {
		total += r.rows
	}
	m := group[0].entry.Model
	dims, d := m.Dims()
	cols := group[0].cols
	outCols := d
	if group[0].op == opReconstruct {
		outCols = dims
	}

	b.inScratch.Data = grow(b.inScratch.Data, total*cols)
	b.inScratch.R, b.inScratch.C = total, cols
	b.outScratch.Data = grow(b.outScratch.Data, total*outCols)
	b.outScratch.R, b.outScratch.C = total, outCols

	// Gather: each request's rows land in a contiguous slab of the batch.
	offs := 0
	for _, r := range group {
		copy(b.inScratch.Data[offs*cols:], r.in[:r.rows*cols])
		r.outCols = outCols
		r.out = grow(r.out, r.rows*outCols)
		offs += r.rows
	}

	var err error
	if group[0].op == opTransform {
		_, err = m.TransformDenseInto(&b.outScratch, &b.inScratch)
	} else {
		_, err = m.ReconstructInto(&b.outScratch, &b.inScratch)
	}

	if err == nil {
		scatter(group, b.outScratch.Data, outCols)
	}
	for _, r := range group {
		r.err = err
		r.done <- struct{}{}
	}
}

// scatterBody is scatter's chunk loop with its captures as fields, pooled so
// the steady-state serving path performs no closure allocation (the same
// discipline as the matrix Mul kernels — see parallel.Runner).
type scatterBody struct {
	group   []*request
	data    []float64
	outCols int
}

var scatterBodies = parallel.NewPool(func() *scatterBody { return new(scatterBody) })

func (t *scatterBody) Run(lo, hi int) {
	// Prefix offsets are implicit: request k's slab starts at the sum of the
	// previous requests' rows. Recompute per chunk to keep chunks
	// independent (no shared cursor).
	offs := 0
	for _, r := range t.group[:lo] {
		offs += r.rows
	}
	for _, r := range t.group[lo:hi] {
		n := r.rows * t.outCols
		copy(r.out[:n], t.data[offs*t.outCols:offs*t.outCols+n])
		offs += r.rows
	}
}

// scatter copies each request's slab of the batch output into its own out
// buffer, fanning across workers when the group is wide.
func scatter(group []*request, data []float64, outCols int) {
	body := scatterBodies.Get()
	body.group, body.data, body.outCols = group, data, outCols
	parallel.ForRunner(len(group), 4, body)
	*body = scatterBody{}
	scatterBodies.Put(body)
}
