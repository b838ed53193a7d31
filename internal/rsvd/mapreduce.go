package rsvd

import (
	"fmt"

	"spca/internal/cluster"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// FitMapReduce runs distributed randomized SVD on the MapReduce engine:
// broadcast a seeded Gaussian test matrix Ω, project P = Yc·Ω, orthonormalize
// with a charged QR phase, refine with q QR re-orthonormalized power
// iterations (Q ← QR(Yc·(YcᵀQ))), then take the small SVD of B = YcᵀQ on the
// driver. Unlike the Mahout baseline in internal/ssvd, the B job uses
// in-mapper combining (one k-vector per column per task instead of one per
// non-zero, accumulated in the engine's shuffle slab), and every mapper runs
// with zero steady-state allocations.
func FitMapReduce(eng *mapred.Engine, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if err := opt.validate(len(rows), dims); err != nil {
		return nil, err
	}
	cl := eng.Cluster
	tr := opt.Tracer
	if tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitRSVD", trace.KindFit,
			trace.I("rows", int64(len(rows))), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}
	// A resumed run restores the mean from its snapshot: the mean job was
	// already paid for by the crashed incarnation.
	var mean []float64
	if snap := opt.Resume; snap != nil {
		mean = snap.Mean
	} else {
		var err error
		if mean, err = meanJob(eng, rows, dims); err != nil {
			return nil, err
		}
	}
	indexed := make([]indexedRow, len(rows))
	for i, r := range rows {
		indexed[i] = indexedRow{idx: i, row: r}
	}
	me := &mrEngine{
		eng: eng, opt: opt, dims: dims, mean: mean, indexed: indexed,
		scr: newMRScratch(eng.NumSplits(len(rows))),
	}
	return RunRounds(cl, opt, rows, dims, mean, me)
}

type indexedRow struct {
	idx int
	row matrix.SparseVector
}

// mrEngine implements one randomized-SVD sketch round as MapReduce jobs. The
// projection matrix P (N x k), the small matrix B (D x k), and all per-task
// mapper scratch are allocated on the first round and reused afterwards.
type mrEngine struct {
	eng     *mapred.Engine
	opt     Options
	dims    int
	mean    []float64
	indexed []indexedRow
	scr     *mrScratch
	p       *matrix.Dense // N x k projection, refilled by every project job
	b       *matrix.Dense // D x k, refilled by every B job
	// qr holds the driver QR's buffers. Its Q is consumed by the next B job
	// and never reaches the returned model, so one workspace serves every
	// QR of the fit.
	qr matrix.QRWorkspace
}

func (e *mrEngine) FaultEpoch() int64       { return e.eng.JobSeq() }
func (e *mrEngine) SetFaultEpoch(seq int64) { e.eng.SetJobSeq(seq) }

func (e *mrEngine) Round(round, k int) (*matrix.Dense, []float64, error) {
	cl := e.eng.Cluster
	// Ω: a fresh D x k Gaussian test matrix per round, broadcast to all
	// mappers. Independent of ssvd's draws by stream name, not by offset.
	omega := matrix.NormRnd(matrix.NewRNG(matrix.DeriveSeed(e.opt.Seed, "rsvd/omega", uint64(round))), e.dims, k)
	broadcastBytes(cl, "rsvd/omega", mapred.BytesOfDense(omega))

	if err := e.projectJob("rsvd-range", omega); err != nil {
		return nil, nil, err
	}
	q := qrPhase(cl, &e.qr, e.p)

	// Power iterations: Q ← QR(Yc·(YcᵀQ)), re-orthonormalizing after every
	// application so the basis never degenerates (Halko's recommendation).
	for pi := 0; pi < e.opt.PowerIterations; pi++ {
		if err := e.bJob(q); err != nil {
			return nil, nil, err
		}
		broadcastBytes(cl, "rsvd/b", mapred.BytesOfDense(e.b))
		if err := e.projectJob(fmt.Sprintf("rsvd-power-%d", pi), e.b); err != nil {
			return nil, nil, err
		}
		q = qrPhase(cl, &e.qr, e.p)
	}

	// B = YcᵀQ (D x k), then the small SVD on the driver: principal
	// directions are B's left singular vectors.
	if err := e.bJob(q); err != nil {
		return nil, nil, err
	}
	w, s, _ := matrix.TopSVD(e.b, e.opt.Components)
	cl.AddDriverCompute(int64(e.dims) * int64(k) * int64(k))
	return w, s, nil
}

// broadcastBytes charges shipping one driver-side matrix to every node.
func broadcastBytes(cl *cluster.Cluster, name string, bytes int64) {
	cl.RunPhase(cluster.PhaseStats{
		Name:         name,
		ShuffleBytes: bytes * int64(cl.Config().Nodes),
	})
}

// qrPhase orthonormalizes the materialized projection: the real QR runs on
// the driver's copy and the distributed cost is charged — O(N·k²) compute
// plus a full write+read of Q. The returned Q lives in ws until its next use.
func qrPhase(cl *cluster.Cluster, ws *matrix.QRWorkspace, p *matrix.Dense) *matrix.Dense {
	q := ws.Q(p)
	nk := int64(p.R) * int64(p.C) * 8
	cl.RunPhase(cluster.PhaseStats{
		Name:              "rsvd/qr",
		ComputeOps:        int64(p.R) * int64(p.C) * int64(p.C) * 2,
		DiskBytes:         2 * nk, // write Q, read it back in the next job
		MaterializedBytes: nk,
		Tasks:             int64(cl.TotalCores()),
	})
	return q
}

// projectJob computes P = Yc·B for an in-memory D x k matrix B with mean
// propagation, filling the reused e.p. Each mapper emits one pooled k-vector
// per row — zero allocations once the per-task freelists are warm.
func (e *mrEngine) projectJob(name string, b *matrix.Dense) error {
	k := b.C
	// Ym·B, subtracted from every projected row (mean propagation).
	mb := e.scr.mb(k)
	for j, mj := range e.mean {
		if mj != 0 {
			matrix.AXPY(mj, b.Row(j), mb)
		}
	}
	job := mapred.Job[indexedRow, int, []float64, []float64]{
		Name: name,
		NewMapper: func(task int) mapred.Mapper[indexedRow, int, []float64] {
			m := e.scr.proj[task]
			m.reset(k, b, mb) // reset handles fault replays too
			return m
		},
		Reduce:      func(_ int, vs [][]float64, _ mapred.Ops) []float64 { return vs[0] },
		InputBytes:  func(r indexedRow) int64 { return mapred.BytesOfSparseVec(r.row) },
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
		Dense:       e.scr.denseProj(len(e.indexed), k),
	}
	out, err := mapred.Run(e.eng, job, e.indexed)
	if err != nil {
		return err
	}
	if e.p == nil {
		e.p = matrix.NewDense(len(e.indexed), k)
	}
	for i := range e.indexed {
		v, ok := out[i]
		if !ok {
			return fmt.Errorf("rsvd: %s lost row %d", name, i)
		}
		copy(e.p.Row(i), v)
	}
	return nil
}

// bJob computes B = YcᵀQ (D x k) with in-mapper combining: each task folds
// its rows into one k-vector per touched column, accumulated in place in the
// emitter's rows — the combining Mahout's Bt job lacks. The reducers sum each
// column straight into its row of e.b.
func (e *mrEngine) bJob(q *matrix.Dense) error {
	k := q.C
	if e.b == nil {
		e.b = matrix.NewDense(e.dims, k)
	}
	e.b.Zero()
	// The mapper holds no state of its own, so every task shares one.
	bt := &btMapper{k: k, q: q}
	job := mapred.Job[indexedRow, int, []float64, []float64]{
		Name: "rsvd-b",
		NewMapper: func(int) mapred.Mapper[indexedRow, int, []float64] {
			return bt
		},
		Combine: func(a, b []float64) []float64 {
			matrix.AXPY(1, b, a)
			return a
		},
		// Column j's row is cleared and the values added in order — the same
		// sum a fresh vector would hold — so a retried attempt recomputes it.
		Reduce: func(j int, vs [][]float64, o mapred.Ops) []float64 {
			sum := e.b.Row(j)
			clear(sum)
			for _, v := range vs {
				matrix.AXPY(1, v, sum)
				o.AddOps(int64(k))
			}
			return sum
		},
		InputBytes: func(r indexedRow) int64 {
			return mapred.BytesOfSparseVec(r.row) + int64(k)*8 // reads Y and Q
		},
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
		Dense:       e.scr.denseB(e.dims, k),
	}
	if _, err := mapred.Run(e.eng, job, e.indexed); err != nil {
		return err
	}
	// Mean propagation on the driver: B = YᵀQ - Ym ⊗ colSum(Q).
	colSum := e.scr.mb(k) // reuse of the k-sized driver buffer is safe here
	for i := 0; i < q.R; i++ {
		matrix.AXPY(1, q.Row(i), colSum)
	}
	for j, mj := range e.mean {
		if mj != 0 {
			matrix.AXPY(-mj, colSum, e.b.Row(j))
		}
	}
	e.eng.Cluster.AddDriverCompute(int64(q.R)*int64(k) + int64(e.dims)*int64(k))
	return nil
}

// meanJob computes column means with a small job (same shape as sPCA's).
func meanJob(eng *mapred.Engine, rows []matrix.SparseVector, dims int) ([]float64, error) {
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "rsvd-mean",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &meanMapper{partial: map[int]float64{}}
		},
		Combine: func(a, b float64) float64 { return a + b },
		Reduce: func(k int, vs []float64, o mapred.Ops) float64 {
			var s float64
			for _, v := range vs {
				s += v
				o.AddOps(1)
			}
			return s
		},
		InputBytes: mapred.BytesOfSparseVec,
		KeyBytes:   mapred.BytesOfInt,
		ValueBytes: mapred.BytesOfFloat64,
		// Keys are the column range plus the -1 row-count slot.
		Dense: &mapred.DenseSpec{MinKey: -1, Keys: dims + 1, Width: 1},
	}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return nil, err
	}
	count := out[-1]
	if count == 0 {
		return nil, fmt.Errorf("rsvd: mean job saw no rows")
	}
	mean := make([]float64, dims)
	for j, v := range out {
		if j >= 0 {
			mean[j] = v / count
		}
	}
	return mean, nil
}

type meanMapper struct {
	partial map[int]float64
	count   float64
}

func (m *meanMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	for k, j := range row.Indices {
		m.partial[j] += row.Values[k]
	}
	m.count++
	out.AddOps(int64(row.NNZ()))
}

func (m *meanMapper) Cleanup(out mapred.Emitter[int, float64]) {
	for j, v := range m.partial {
		out.Emit(j, v)
	}
	out.Emit(-1, m.count)
}

// mrScratch owns every reused mapper-side buffer, indexed by task.
type mrScratch struct {
	proj  []*projMapper
	mbBuf []float64
	// Flat-slab shuffle specs, one stable pointer per job shape so every
	// round reuses the engine's pooled slabs via the cheap same-spec reset.
	projSpec *mapred.DenseSpec
	bSpec    *mapred.DenseSpec
}

// denseProj is the projection job's spec: one k-wide row per input row.
func (s *mrScratch) denseProj(n, k int) *mapred.DenseSpec {
	if s.projSpec == nil || s.projSpec.Keys != n || s.projSpec.Width != k {
		s.projSpec = &mapred.DenseSpec{MinKey: 0, Keys: n, Width: k}
	}
	return s.projSpec
}

// denseB is the Bᵀ job's spec: one k-wide row per touched column.
func (s *mrScratch) denseB(dims, k int) *mapred.DenseSpec {
	if s.bSpec == nil || s.bSpec.Keys != dims || s.bSpec.Width != k {
		s.bSpec = &mapred.DenseSpec{MinKey: 0, Keys: dims, Width: k}
	}
	return s.bSpec
}

func newMRScratch(tasks int) *mrScratch {
	s := &mrScratch{proj: make([]*projMapper, tasks)}
	for i := range s.proj {
		s.proj[i] = &projMapper{}
	}
	return s
}

// mb returns the zeroed driver-side k-vector.
func (s *mrScratch) mb(k int) []float64 {
	if cap(s.mbBuf) < k {
		s.mbBuf = make([]float64, k)
	}
	s.mbBuf = s.mbBuf[:k]
	for i := range s.mbBuf {
		s.mbBuf[i] = 0
	}
	return s.mbBuf
}

// projMapper emits one pooled k-vector per input row. reset reclaims every
// vector handed out by the previous job (or a failed attempt of this one).
type projMapper struct {
	k    int
	b    *matrix.Dense
	mb   []float64
	free [][]float64
	out  [][]float64
}

func (m *projMapper) reset(k int, b *matrix.Dense, mb []float64) {
	if m.k != k {
		m.free, m.out, m.k = nil, nil, k
	}
	m.free = append(m.free, m.out...)
	m.out = m.out[:0]
	m.b, m.mb = b, mb
}

func (m *projMapper) vec() []float64 {
	var v []float64
	if n := len(m.free); n > 0 {
		v = m.free[n-1]
		m.free = m.free[:n-1]
		for i := range v {
			v[i] = 0
		}
	} else {
		v = make([]float64, m.k)
	}
	m.out = append(m.out, v)
	return v
}

func (m *projMapper) Map(rec indexedRow, out mapred.Emitter[int, []float64]) {
	p := m.vec()
	for t, j := range rec.row.Indices {
		matrix.AXPY(rec.row.Values[t], m.b.Row(j), p)
	}
	matrix.AXPY(-1, m.mb, p)
	out.Emit(rec.idx, p)
	out.AddOps(int64(rec.row.NNZ()*m.k + m.k))
}

func (m *projMapper) Cleanup(mapred.Emitter[int, []float64]) {}

// btMapper folds B-contributions into one k-vector per touched column, held
// in the emitter's rows (mapred.RowEmitter): each column's partial exists
// once per task, in the layout the shuffle ships, and Cleanup has nothing
// left to flush.
type btMapper struct {
	k int
	q *matrix.Dense
}

func (m *btMapper) Map(rec indexedRow, out mapred.Emitter[int, []float64]) {
	acc := out.(mapred.RowEmitter)
	qi := m.q.Row(rec.idx)
	for t, j := range rec.row.Indices {
		matrix.AXPY(rec.row.Values[t], qi, acc.Row(j, m.k))
	}
	out.AddOps(int64(rec.row.NNZ() * m.k))
}

func (*btMapper) Cleanup(mapred.Emitter[int, []float64]) {}
