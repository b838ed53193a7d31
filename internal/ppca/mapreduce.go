package ppca

import (
	"fmt"

	"spca/internal/cluster"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/trace"
)

// Special composite-key values for the consolidated YtXJob (§4.1 uses a
// composite key to route all XtX partials to one reducer while YtX rows
// spread across reducers).
const (
	keyXtX  = -1
	keySumX = -2
	keySS3  = -3
	keyMean = -4
	keyFro  = -5
)

// FitMapReduce runs sPCA on the MapReduce engine (Algorithm 4). rows are the
// input matrix records; dims is D. The optimization switches in opt select
// between the full sPCA jobs and the unoptimized baselines of Table 3.
func FitMapReduce(eng *mapred.Engine, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if err := opt.validate(len(rows), dims); err != nil {
		return nil, err
	}
	cl := eng.Cluster
	if tr := opt.Tracer; tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitMapReduce", trace.KindFit,
			trace.I("rows", int64(len(rows))), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}
	res := &Result{}
	var em *emDriver
	if snap := opt.Resume; snap != nil {
		// Resume: the mean/Frobenius jobs (and SmartGuess) were already paid
		// for by the crashed incarnation and live in the snapshot.
		em = newEMDriver(opt, len(rows), dims, snap.Mean, snap.SS1)
	} else {
		// meanJob + FnormJob run once before the loop (Algorithm 4 lines 3-4).
		mean, err := meanJob(eng, rows, dims)
		if err != nil {
			return nil, err
		}
		ss1, err := fnormJob(eng, rows, mean, opt.EfficientFrobenius)
		if err != nil {
			return nil, err
		}
		em = newEMDriver(opt, len(rows), dims, mean, ss1)
		if opt.SmartGuess {
			if err := smartGuess(cl, sparseRows(rows), len(rows), dims, opt, em); err != nil {
				return nil, fmt.Errorf("ppca: smart guess: %w", err)
			}
		}
	}
	res.Mean = em.mean

	// Per-task mapper scratch plus the driver-side job sums, allocated once
	// and recycled every iteration. The error metric reads the caller's rows
	// in place.
	e := &mrEngine{
		eng: eng, rows: rows, dims: dims, opt: opt,
		scr:    newMRScratch(eng.NumSplits(len(rows)), em.d),
		pooled: newJobSums(dims, em.d),
		sample: opt.errorSample(len(rows)),
	}
	if err := runEM(em, opt, e, res); err != nil {
		return nil, err
	}
	return res, nil
}

// mrEngine adapts the MapReduce jobs to the shared guarded EM loop.
type mrEngine struct {
	eng    *mapred.Engine
	rows   []matrix.SparseVector
	dims   int
	opt    Options
	scr    *mrScratch
	pooled jobSums
	sample []int
}

func (e *mrEngine) cluster() *cluster.Cluster { return e.eng.Cluster }
func (e *mrEngine) faultEpoch() int64         { return e.eng.JobSeq() }
func (e *mrEngine) setFaultEpoch(seq int64)   { e.eng.SetJobSeq(seq) }

func (e *mrEngine) prepared(em *emDriver) {
	// Ship CM (and later C) to every node, like Hadoop's distributed cache.
	broadcast(e.eng.Cluster, "ytx/cache", mapred.BytesOfDense(em.cm))
}

func (e *mrEngine) pass(em *emDriver) (jobSums, error) {
	if e.opt.MinimizeIntermediate {
		return ytxJob(e.eng, e.rows, e.dims, em, e.opt, e.scr, e.pooled)
	}
	return unoptimizedPasses(e.eng, e.rows, e.dims, em, e.opt)
}

func (e *mrEngine) solved(em *emDriver, cNew *matrix.Dense) {
	// Driver-side small-matrix work: M, M⁻¹, the solve, ss2.
	d := int64(e.opt.Components)
	e.eng.Cluster.AddDriverCompute(int64(e.dims)*d*d + d*d*d)
	broadcast(e.eng.Cluster, "ss3/cache", mapred.BytesOfDense(cNew))
}

func (e *mrEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	return ss3Job(e.eng, e.rows, em, cNew, e.opt, e.scr)
}

func (e *mrEngine) reconErr(em *emDriver) float64 {
	return reconError(em, sparseRows(e.rows), e.sample)
}

// broadcast charges shipping driver state to every worker node.
func broadcast(cl *cluster.Cluster, name string, bytes int64) {
	cl.RunPhase(cluster.PhaseStats{
		Name:         name,
		ShuffleBytes: bytes * int64(cl.Config().Nodes),
	})
}

// meanJob computes the column means with one MapReduce job. Mappers emit
// every non-zero and a row count of 1, and the Combine sums each key in place
// in the task's shuffle slab: the slab is the stateful combiner's partial.
func meanJob(eng *mapred.Engine, rows []matrix.SparseVector, dims int) ([]float64, error) {
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "meanJob",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return meanMapper{}
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
	}
	// Keys are the column range plus the keyMean row-count slot below it.
	job.Dense = &mapred.DenseSpec{MinKey: keyMean, Keys: dims - keyMean, Width: 1}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return nil, err
	}
	count := out[keyMean]
	if count == 0 {
		return nil, fmt.Errorf("ppca: meanJob produced no row count")
	}
	mean := make([]float64, dims)
	for k, v := range out {
		if k >= 0 {
			mean[k] = v / count
		}
	}
	return mean, nil
}

// colSums is a Spark partition's column-sum partial kept as a flat array
// plus a first-touch list rather than a hash map: columns hit by any row of
// the partition index directly into partial, and the touched list names
// exactly the columns the partition saw (so the shuffle never carries zero
// entries for columns it never saw). It backs the Spark mean job.
type colSums struct {
	partial []float64
	seen    []bool
	touched []int32
	count   float64
}

// grow widens the partial to n columns.
func (c *colSums) grow(n int) {
	if len(c.partial) >= n {
		return
	}
	p := make([]float64, n)
	copy(p, c.partial)
	s := make([]bool, n)
	copy(s, c.seen)
	t := make([]int32, len(c.touched), n)
	copy(t, c.touched)
	c.partial, c.seen, c.touched = p, s, t
}

// add folds one row into the partial.
func (c *colSums) add(row matrix.SparseVector) {
	c.grow(row.Len)
	for k, j := range row.Indices {
		if !c.seen[j] {
			c.seen[j] = true
			c.touched = append(c.touched, int32(j))
		}
		c.partial[j] += row.Values[k]
	}
	c.count++
}

// merge folds partial o into c, column by column in o's touched order.
func (c *colSums) merge(o *colSums) {
	c.grow(len(o.partial))
	for _, j := range o.touched {
		if !c.seen[j] {
			c.seen[j] = true
			c.touched = append(c.touched, j)
		}
		c.partial[j] += o.partial[j]
	}
	c.count += o.count
}

// meanMapper is the mapper of meanJob. It holds no partial of its own: each
// emit lands in the key's slab entry, where the Combine adds it to the sum so
// far, the same sum in the same order a private partial would hold.
type meanMapper struct{}

func (meanMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	for k, j := range row.Indices {
		out.Emit(j, row.Values[k])
	}
	out.Emit(keyMean, 1)
	out.AddOps(int64(row.NNZ()))
}

func (meanMapper) Cleanup(out mapred.Emitter[int, float64]) {}

// fnormJob computes ||Y - Ym||²_F. With efficient=true it uses the
// sparsity-preserving Algorithm 3; otherwise the row-densifying Algorithm 2.
func fnormJob(eng *mapred.Engine, rows []matrix.SparseVector, mean []float64, efficient bool) (float64, error) {
	var msum float64
	for _, mv := range mean {
		msum += mv * mv
	}
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "FnormJob",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &fnormMapper{mean: mean, msum: msum, efficient: efficient}
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
	}
	job.Dense = &mapred.DenseSpec{MinKey: keyFro, Keys: 1, Width: 1}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return 0, err
	}
	return out[keyFro], nil
}

type fnormMapper struct {
	mean      []float64
	msum      float64
	efficient bool
	sum       float64
	dense     []float64 // densify buffer, grown to the widest row seen
}

func (m *fnormMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	if m.efficient {
		// Algorithm 3: msum covers the all-zero row; fix up non-zeros.
		s := m.msum
		for k, j := range row.Indices {
			v := row.Values[k]
			d := v - m.mean[j]
			s += d*d - m.mean[j]*m.mean[j]
		}
		m.sum += s
		out.AddOps(int64(2 * row.NNZ()))
		return
	}
	// Algorithm 2: densify the row, then iterate all D entries. The buffer is
	// mapper state sized to the widest row seen, not a per-row allocation.
	if cap(m.dense) < row.Len {
		m.dense = make([]float64, row.Len)
	}
	dense := m.dense[:row.Len]
	for j := range dense {
		dense[j] = 0
	}
	for k, j := range row.Indices {
		dense[j] = row.Values[k]
	}
	var s float64
	for j, v := range dense {
		dv := v - m.mean[j]
		s += dv * dv
	}
	m.sum += s
	out.AddOps(int64(2 * row.Len))
}

func (m *fnormMapper) Cleanup(out mapred.Emitter[int, float64]) { out.Emit(keyFro, m.sum) }

// ytxJob is the consolidated distributed job of Algorithm 4: it recomputes X
// row by row and produces YtX, XtX, and ΣX in a single pass. Mappers hold
// the partial matrices in memory (the stateful combiner of §4.1) and ship
// them once per task, keyed so all XtX partials meet at one reducer. The
// reducers sum straight into sums, the fit-owned driver matrices.
func ytxJob(eng *mapred.Engine, rows []matrix.SparseVector, dims int, em *emDriver, opt Options, scr *mrScratch, sums jobSums) (jobSums, error) {
	d := em.d
	sums.zero()
	job := mapred.Job[matrix.SparseVector, int, []float64, []float64]{
		Name: "YtXJob",
		NewMapper: func(task int) mapred.Mapper[matrix.SparseVector, int, []float64] {
			if opt.StatefulCombiner {
				return &ytxMapper{em: em, meanProp: opt.MeanPropagation, d: d, scr: scr.tasks[task]}
			}
			return &ytxNaiveMapper{em: em, meanProp: opt.MeanPropagation, d: d}
		},
		Combine:     sumVec,
		Reduce:      sums.reduce,
		InputBytes:  mapred.BytesOfSparseVec,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	if !opt.StatefulCombiner {
		// Without in-mapper combining every per-row partial is mapper
		// output that must be spilled and shuffled (the §4.1 problem:
		// "each mapper generate[s] an entire dense matrix after processing
		// each sparse row").
		job.Combine = nil
	} else {
		// The stateful path opts into the flat-slab shuffle: the naive
		// (combiner-less) ablation stays generic because it emits duplicate
		// keys per task.
		job.Dense = scr.denseYtX(dims, d)
	}
	if _, err := mapred.Run(eng, job, rows); err != nil {
		return jobSums{}, err
	}
	return sums, nil
}

// mrScratch owns the per-map-task mapper scratch of one FitMapReduce call,
// indexed by task id and reused across all EM iterations. Distinct tasks
// write distinct slots of a pre-sized slice, so concurrent map tasks never
// race; retried attempts of one task run sequentially in one goroutine.
type mrScratch struct {
	tasks []*taskScratch
	// DenseSpecs of the per-iteration jobs, built once per fit so an EM
	// iteration allocates no spec (the YtX spec carries a WideKeys map).
	ytxSpec *mapred.DenseSpec
	ss3Spec *mapred.DenseSpec
}

func newMRScratch(tasks, d int) *mrScratch {
	return &mrScratch{tasks: newTaskScratches(tasks, d)}
}

// denseYtX returns the fit-wide DenseSpec of the consolidated YtXJob: the
// composite key range [keySumX, dims) of d-wide rows, with the single
// d²-wide XtX partial as a wide key.
func (sc *mrScratch) denseYtX(dims, d int) *mapred.DenseSpec {
	if sc.ytxSpec == nil {
		sc.ytxSpec = &mapred.DenseSpec{
			MinKey:   keySumX,
			Keys:     dims - keySumX,
			Width:    d,
			WideKeys: map[int]int{keyXtX: d * d},
		}
	}
	return sc.ytxSpec
}

// denseSS3 returns the single-key scalar spec of the ss3Job.
func (sc *mrScratch) denseSS3() *mapred.DenseSpec {
	if sc.ss3Spec == nil {
		sc.ss3Spec = &mapred.DenseSpec{MinKey: keySS3, Keys: 1, Width: 1}
	}
	return sc.ss3Spec
}

// ytxNaiveMapper emits one partial per non-zero per row with no in-mapper
// state — the baseline the stateful-combiner technique replaces.
type ytxNaiveMapper struct {
	em       *emDriver
	meanProp bool
	d        int
	xi       []float64
}

func (m *ytxNaiveMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
	if m.xi == nil {
		m.xi = make([]float64, m.d)
	}
	if !m.meanProp {
		row = densifyCentered(row, m.em.mean)
	}
	computeRowLatent(row, m.em, m.meanProp, m.xi)
	for k, j := range row.Indices {
		p := make([]float64, m.d)
		matrix.AXPY(row.Values[k], m.xi, p)
		out.Emit(j, p)
	}
	xtx := make([]float64, m.d*m.d)
	for a := 0; a < m.d; a++ {
		va := m.xi[a]
		base := a * m.d
		for b := 0; b < m.d; b++ {
			xtx[base+b] = va * m.xi[b]
		}
	}
	out.Emit(keyXtX, xtx)
	sum := make([]float64, m.d)
	copy(sum, m.xi)
	out.Emit(keySumX, sum)
	out.AddOps(int64(2*row.NNZ()*m.d + m.d*m.d + m.d))
}

func (m *ytxNaiveMapper) Cleanup(out mapred.Emitter[int, []float64]) {}

// newJobSums allocates a zeroed jobSums of the given shape.
func newJobSums(dims, d int) jobSums {
	return jobSums{
		ytx:  matrix.NewDense(dims, d),
		xtx:  matrix.NewDense(d, d),
		sumX: make([]float64, d),
	}
}

// zero clears the sums for a new pass.
func (s jobSums) zero() {
	s.ytx.Zero()
	s.xtx.Zero()
	clear(s.sumX)
}

// reduce is the consolidated YtXJob's reducer: key k's values are summed into
// its own row of s — a YtX row, XtX, or ΣX — which is the key's result. The
// row is cleared first and the values added in order, the same AXPY-from-zero
// sum a fresh vector would hold, so a retried reduce attempt recomputes it
// exactly. Distinct keys own distinct rows, so concurrent reduce tasks never
// share one.
func (s jobSums) reduce(k int, vs [][]float64, o mapred.Ops) []float64 {
	var out []float64
	switch {
	case k >= 0:
		out = s.ytx.Row(k)
	case k == keyXtX:
		out = s.xtx.Data
	case k == keySumX:
		out = s.sumX
	default:
		panic(fmt.Sprintf("ppca: unexpected YtXJob key %d", k))
	}
	clear(out)
	for _, v := range vs {
		matrix.AXPY(1, v, out)
		o.AddOps(int64(len(v)))
	}
	return out
}

// assembleSums builds the jobSums matrices from reducer output.
func assembleSums(out map[int][]float64, dims, d int) (jobSums, error) {
	sums := newJobSums(dims, d)
	for k, v := range out {
		switch {
		case k >= 0:
			copy(sums.ytx.Row(k), v)
		case k == keyXtX:
			copy(sums.xtx.Data, v)
		case k == keySumX:
			copy(sums.sumX, v)
		default:
			return jobSums{}, fmt.Errorf("ppca: unexpected YtXJob key %d", k)
		}
	}
	return sums, nil
}

func sumVec(a, b []float64) []float64 {
	matrix.AXPY(1, b, a)
	return a
}

// reduceSumVec sums a key's values into a fresh vector: the reducer of the
// unoptimized baseline jobs, whose output the driver assembles afterwards.
func reduceSumVec(k int, vs [][]float64, o mapred.Ops) []float64 {
	out := make([]float64, len(vs[0]))
	for _, v := range vs {
		matrix.AXPY(1, v, out)
		o.AddOps(int64(len(v)))
	}
	return out
}

// taskScratch is one map task's (or Spark partition's) reusable per-row
// buffers, shared by the YtX and ss3 mappers. A fit runs its jobs one at a
// time and every buffer is fully overwritten per row, so no reset is needed
// between attempts or jobs. The YtX/XtX/ΣX partials are not here: they live
// in the emitter's rows (ytxMapper) or a partition's flat partial (Spark).
type taskScratch struct {
	xi   []float64
	ct   []float64
	xc   []float64 // D-length scratch for the non-associative ss3 order
	idx  []int     // densify scratch for the no-mean-propagation ablation
	vals []float64
}

// pageFloats is a 4 KiB page in float64s.
const pageFloats = 512

// newTaskScratches returns n task scratches whose xi and ct are carved from
// one allocation, each task's pair on 4 KiB pages of its own. Concurrent
// tasks write their xi and ct on every row. Packed side by side, two cores
// wrote within one page, where the hardware prefetchers couple neighbouring
// lines, and the MapReduce mappers ran about 15% slower at GOMAXPROCS=2.
func newTaskScratches(n, d int) []*taskScratch {
	stride := (2*d/pageFloats + 1) * pageFloats
	floats := make([]float64, n*stride)
	block := make([]taskScratch, n)
	out := make([]*taskScratch, n)
	for t := range block {
		s := &block[t]
		s.xi, s.ct = floats[:d:d], floats[d:2*d:2*d]
		floats = floats[stride:]
		out[t] = s
	}
	return out
}

// densify is densifyCentered on task-held buffers.
func (s *taskScratch) densify(row matrix.SparseVector, mean []float64) matrix.SparseVector {
	if cap(s.idx) < row.Len {
		s.idx = make([]int, row.Len)
		s.vals = make([]float64, row.Len)
	}
	return matrix.DensifyCenteredInto(row, mean, s.idx[:row.Len], s.vals[:row.Len])
}

// ytxMapper is the stateful combiner of the consolidated YtXJob. Its YtX,
// XtX and ΣX partials accumulate in place in the rows the emitter hands out
// (mapred.RowEmitter), so each partial exists once per task, in the layout
// the shuffle ships, and Cleanup has nothing left to flush.
type ytxMapper struct {
	em       *emDriver
	meanProp bool
	d        int
	scr      *taskScratch
}

func (m *ytxMapper) Map(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
	acc := out.(mapred.RowEmitter)
	s, d := m.scr, m.d
	if !m.meanProp {
		row = s.densify(row, m.em.mean)
	}
	computeRowLatent(row, m.em, m.meanProp, s.xi)
	nnz := row.NNZ()
	// YtX partial: only rows of Y's non-zeros are touched (for the
	// mean-propagated path this is what keeps the partial sparse).
	for k, j := range row.Indices {
		matrix.AXPY(row.Values[k], s.xi, acc.Row(j, d))
	}
	xtx := acc.Row(keyXtX, d*d)
	for a := 0; a < d; a++ {
		va := s.xi[a]
		if va == 0 {
			continue
		}
		base := a * d
		for b := 0; b < d; b++ {
			xtx[base+b] += va * s.xi[b]
		}
	}
	matrix.AXPY(1, s.xi, acc.Row(keySumX, d))
	out.AddOps(int64(2*nnz*d + d*d + d))
}

func (m *ytxMapper) Cleanup(out mapred.Emitter[int, []float64]) {}

// computeRowLatent fills xi with the centered latent row. With mean
// propagation the Xm correction applies; without it the row is already
// centered and dense, so no correction is needed.
func computeRowLatent(row matrix.SparseVector, em *emDriver, meanProp bool, xi []float64) {
	if meanProp {
		for k := range xi {
			xi[k] = -em.xm[k]
		}
	} else {
		for k := range xi {
			xi[k] = 0
		}
	}
	for k, j := range row.Indices {
		matrix.AXPY(row.Values[k], em.cm.Row(j), xi)
	}
}

// densifyCentered materializes Yi - Ym as a fully dense "sparse" vector —
// exactly the cost the mean-propagation optimization avoids.
func densifyCentered(row matrix.SparseVector, mean []float64) matrix.SparseVector {
	idx := make([]int, row.Len)
	vals := make([]float64, row.Len)
	for j := range idx {
		idx[j] = j
		vals[j] = -mean[j]
	}
	for k, j := range row.Indices {
		vals[j] += row.Values[k]
	}
	return matrix.SparseVector{Len: row.Len, Indices: idx, Values: vals}
}

// ss3Job recomputes X on demand and accumulates Σ Xi_c·(Cᵀ·Yiᵀ) using the
// associativity trick: multiply Cᵀ with the sparse Yiᵀ first (§4.1, Eq. 3).
func ss3Job(eng *mapred.Engine, rows []matrix.SparseVector, em *emDriver, cNew *matrix.Dense, opt Options, scr *mrScratch) (float64, error) {
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: "ss3Job",
		NewMapper: func(task int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &ss3Mapper{
				em: em, c: cNew, meanProp: opt.MeanPropagation,
				assoc: opt.AssociativeSS3, d: em.d,
				scr: scr.tasks[task],
			}
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
	}
	job.Dense = scr.denseSS3()
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return 0, err
	}
	return out[keySS3], nil
}

type ss3Mapper struct {
	em       *emDriver
	c        *matrix.Dense
	meanProp bool
	assoc    bool
	d        int

	sum float64
	scr *taskScratch
}

func (m *ss3Mapper) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	s := m.scr
	if !m.meanProp {
		row = s.densify(row, m.em.mean)
	}
	computeRowLatent(row, m.em, m.meanProp, s.xi)
	if m.assoc {
		// Eq. 3 with associativity: ct = Cᵀ·Yiᵀ touches only non-zeros.
		for k := range s.ct {
			s.ct[k] = 0
		}
		for k, j := range row.Indices {
			matrix.AXPY(row.Values[k], m.c.Row(j), s.ct)
		}
		m.sum += matrix.Dot(s.xi, s.ct)
		out.AddOps(int64(row.NNZ()*m.d + row.NNZ()*m.d + m.d))
		return
	}
	// Default order: (Xi·Cᵀ) is a dense D-vector; "most of the work ...
	// will be wasted since most of these elements will be multiplied with
	// zero elements" (§4.1).
	if s.xc == nil {
		s.xc = make([]float64, m.c.R)
	}
	denseXC(s.xi, m.c, s.xc)
	var t float64
	for k, j := range row.Indices {
		t += s.xc[j] * row.Values[k]
	}
	m.sum += t
	out.AddOps(int64(row.NNZ()*m.d + m.c.R*m.d + row.NNZ()))
}

func (m *ss3Mapper) Cleanup(out mapred.Emitter[int, float64]) { out.Emit(keySS3, m.sum) }

// pairYX is the record type of the unoptimized pipeline, where the
// materialized X must be read back alongside Y.
type pairYX struct {
	y matrix.SparseVector
	x []float64
}

// unoptimizedPasses implements the naive job graph of Figure 1: a dedicated
// job materializes X as intermediate data, and separate XtX and YtX jobs
// read it back — tracing the intermediate-data cost sPCA's §3.2 eliminates.
func unoptimizedPasses(eng *mapred.Engine, rows []matrix.SparseVector, dims int, em *emDriver, opt Options) (jobSums, error) {
	d := em.d
	// Job 1: compute and materialize X (one emitted record per input row).
	xJob := mapred.Job[matrix.SparseVector, int, []float64, []float64]{
		Name: "XJob",
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, []float64] {
			i := -1
			return mapred.MapperFunc[matrix.SparseVector, int, []float64](
				func(row matrix.SparseVector, out mapred.Emitter[int, []float64]) {
					i++
					if !opt.MeanPropagation {
						row = densifyCentered(row, em.mean)
					}
					xi := make([]float64, d)
					computeRowLatent(row, em, opt.MeanPropagation, xi)
					out.Emit(i, xi) // not combinable: every row is distinct
					out.AddOps(int64(row.NNZ() * d))
				})
		},
		Reduce:      func(k int, vs [][]float64, _ mapred.Ops) []float64 { return vs[0] },
		InputBytes:  mapred.BytesOfSparseVec,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	// The per-task row counter above is only unique within a task, so key
	// collisions across tasks would corrupt X. Run the job with one split,
	// which also mirrors how expensive the naive pipeline is to coordinate.
	savedSplits := eng.Splits
	eng.Splits = 1
	xOut, err := mapred.Run(eng, xJob, rows)
	eng.Splits = savedSplits
	if err != nil {
		return jobSums{}, err
	}

	pairs := make([]pairYX, len(rows))
	for i, row := range rows {
		pairs[i] = pairYX{y: row, x: xOut[i]}
	}
	pairBytes := func(p pairYX) int64 {
		return mapred.BytesOfSparseVec(p.y) + mapred.BytesOfVec(p.x)
	}

	// Job 2: XtX (+ ΣX) from the stored X.
	xtxJob := mapred.Job[pairYX, int, []float64, []float64]{
		Name: "XtXJob",
		NewMapper: func(int) mapred.Mapper[pairYX, int, []float64] {
			return &xtxMapper{d: d}
		},
		Combine:     sumVec,
		Reduce:      reduceSumVec,
		InputBytes:  pairBytes,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	xtxOut, err := mapred.Run(eng, xtxJob, pairs)
	if err != nil {
		return jobSums{}, err
	}

	// Job 3: YtX from Y joined with the stored X.
	ytxJob := mapred.Job[pairYX, int, []float64, []float64]{
		Name: "YtXJoinJob",
		NewMapper: func(int) mapred.Mapper[pairYX, int, []float64] {
			return &ytxJoinMapper{d: d, meanProp: opt.MeanPropagation, mean: em.mean}
		},
		Combine:     sumVec,
		Reduce:      reduceSumVec,
		InputBytes:  pairBytes,
		KeyBytes:    mapred.BytesOfInt,
		ValueBytes:  mapred.BytesOfVec,
		ResultBytes: mapred.BytesOfVec,
	}
	ytxOut, err := mapred.Run(eng, ytxJob, pairs)
	if err != nil {
		return jobSums{}, err
	}
	for k, v := range xtxOut {
		ytxOut[k] = v
	}
	return assembleSums(ytxOut, dims, d)
}

type xtxMapper struct {
	d    int
	xtx  []float64
	sumX []float64
}

func (m *xtxMapper) Map(p pairYX, out mapred.Emitter[int, []float64]) {
	if m.xtx == nil {
		m.xtx = make([]float64, m.d*m.d)
		m.sumX = make([]float64, m.d)
	}
	for a := 0; a < m.d; a++ {
		va := p.x[a]
		base := a * m.d
		for b := 0; b < m.d; b++ {
			m.xtx[base+b] += va * p.x[b]
		}
	}
	matrix.AXPY(1, p.x, m.sumX)
	out.AddOps(int64(m.d*m.d + m.d))
}

func (m *xtxMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	if m.xtx == nil {
		return
	}
	out.Emit(keyXtX, m.xtx)
	out.Emit(keySumX, m.sumX)
}

type ytxJoinMapper struct {
	d        int
	meanProp bool
	mean     []float64
	ytx      map[int][]float64
}

func (m *ytxJoinMapper) Map(p pairYX, out mapred.Emitter[int, []float64]) {
	if m.ytx == nil {
		m.ytx = make(map[int][]float64)
	}
	row := p.y
	if !m.meanProp {
		row = densifyCentered(row, m.mean)
	}
	for k, j := range row.Indices {
		part := m.ytx[j]
		if part == nil {
			part = make([]float64, m.d)
			m.ytx[j] = part
		}
		matrix.AXPY(row.Values[k], p.x, part)
	}
	out.AddOps(int64(row.NNZ() * m.d))
}

func (m *ytxJoinMapper) Cleanup(out mapred.Emitter[int, []float64]) {
	for j, p := range m.ytx {
		out.Emit(j, p)
	}
}
