package ppca

import (
	"fmt"

	"spca/internal/cluster"
	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/rdd"
	"spca/internal/trace"
)

// FitSpark runs sPCA on the Spark-like engine (Algorithm 5, YtXSparkJob).
// The input matrix is persisted in the cluster's aggregate memory and
// scanned once (YtXJob) plus once more (ss3Job) per iteration; per-row
// partial results are folded into accumulators, and only the sparse entries
// of each YtX partial cross the network (§4.2).
func FitSpark(ctx *rdd.Context, rows []matrix.SparseVector, dims int, opt Options) (*Result, error) {
	if err := opt.validate(len(rows), dims); err != nil {
		return nil, err
	}
	cl := ctx.Cluster()
	if tr := opt.Tracer; tr != nil {
		cl.SetTracer(tr)
		tr.Begin("FitSpark", trace.KindFit,
			trace.I("rows", int64(len(rows))), trace.I("dims", int64(dims)),
			trace.I("components", int64(opt.Components)), trace.I("incarnation", int64(opt.Incarnation)))
		defer tr.End()
	}

	y := rdd.Parallelize(ctx, "Y", rows, mapred.BytesOfSparseVec)
	y.Persist()
	defer y.Unpersist()

	res := &Result{}
	var em *emDriver
	if snap := opt.Resume; snap != nil {
		// Resume: the mean and Frobenius jobs are restored, not re-run. The
		// RDD setup above had to be redone by this incarnation; the round
		// driver moves its cost to RecoverySeconds when it rewinds the clock.
		em = newEMDriver(opt, len(rows), dims, snap.Mean, snap.SS1)
	} else {
		mean, err := sparkMean(ctx, y, dims)
		if err != nil {
			return nil, err
		}
		ss1, err := sparkFnorm(ctx, y, mean, opt.EfficientFrobenius)
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

	// Per-partition task scratch plus the driver-side sums, allocated once
	// and recycled every iteration. The error metric reads the caller's rows
	// in place.
	e := &sparkEngine{
		ctx: ctx, y: y, rows: rows, dims: dims, opt: opt,
		scr:    newSparkScratch(y.NumPartitions(), dims, em.d),
		sample: opt.errorSample(len(rows)),
	}
	if err := runEM(em, opt, e, res); err != nil {
		return nil, err
	}
	return res, nil
}

// sparkEngine adapts the RDD jobs to the shared guarded EM loop.
type sparkEngine struct {
	ctx    *rdd.Context
	y      *rdd.RDD[matrix.SparseVector]
	rows   []matrix.SparseVector
	dims   int
	opt    Options
	scr    *sparkScratch
	sample []int
}

func (e *sparkEngine) cluster() *cluster.Cluster { return e.ctx.Cluster() }
func (e *sparkEngine) faultEpoch() int64         { return e.ctx.Epoch() }
func (e *sparkEngine) setFaultEpoch(epoch int64) { e.ctx.SetEpoch(epoch) }

func (e *sparkEngine) prepared(em *emDriver) {
	rdd.Broadcast(e.ctx, "CM", mapred.BytesOfDense(em.cm))
}

func (e *sparkEngine) pass(em *emDriver) (jobSums, error) {
	if e.opt.MinimizeIntermediate {
		return sparkYtXJob(e.ctx, e.y, em, e.opt, e.scr)
	}
	return sparkUnoptimized(e.ctx, e.y, e.dims, em, e.opt)
}

func (e *sparkEngine) solved(em *emDriver, cNew *matrix.Dense) {
	d := int64(e.opt.Components)
	e.ctx.Cluster().AddDriverCompute(int64(e.dims)*d*d + d*d*d)
	rdd.Broadcast(e.ctx, "C", mapred.BytesOfDense(cNew))
}

func (e *sparkEngine) ss3(em *emDriver, cNew *matrix.Dense) (float64, error) {
	return sparkSS3Job(e.ctx, e.y, em, cNew, e.opt, e.scr)
}

func (e *sparkEngine) reconErr(em *emDriver) float64 {
	return reconError(em, sparseRows(e.rows), e.sample)
}

func meanPartialBytes(p *colSums) int64 {
	if p == nil {
		return 8
	}
	return 16 + int64(len(p.touched))*16
}

func sparkMean(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], dims int) ([]float64, error) {
	agg, err := rdd.Aggregate(y, "meanJob",
		func() *colSums { return &colSums{} },
		func(p *colSums, row matrix.SparseVector, ops *rdd.TaskOps) *colSums {
			p.add(row)
			ops.AddOps(int64(row.NNZ()))
			return p
		},
		func(a, b *colSums) *colSums { a.merge(b); return a },
		meanPartialBytes,
	)
	if err != nil {
		return nil, err
	}
	defer ctx.Cluster().FreeDriver(meanPartialBytes(agg))
	if agg.count == 0 {
		return nil, fmt.Errorf("ppca: sparkMean saw no rows")
	}
	mean := make([]float64, dims)
	for _, j := range agg.touched {
		mean[j] = agg.partial[j] / agg.count
	}
	return mean, nil
}

// fnormPart is one partition's Frobenius partial: the scalar that crosses
// the wire plus the task-local densify buffer (Algorithm 2 path) that never
// leaves the task — sized to the widest row seen, not allocated per row.
type fnormPart struct {
	sum   float64
	dense []float64
}

func sparkFnorm(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], mean []float64, efficient bool) (float64, error) {
	var msum float64
	for _, mv := range mean {
		msum += mv * mv
	}
	agg, err := rdd.AggregateInto(y, "FnormJob",
		func(int) *fnormPart { return &fnormPart{} },
		func(acc *fnormPart, row matrix.SparseVector, ops *rdd.TaskOps) *fnormPart {
			if efficient {
				s := msum
				for k, j := range row.Indices {
					v := row.Values[k]
					dv := v - mean[j]
					s += dv*dv - mean[j]*mean[j]
				}
				ops.AddOps(int64(2 * row.NNZ()))
				acc.sum += s
				return acc
			}
			if cap(acc.dense) < row.Len {
				acc.dense = make([]float64, row.Len)
			}
			dense := acc.dense[:row.Len]
			for j := range dense {
				dense[j] = 0
			}
			for k, j := range row.Indices {
				dense[j] = row.Values[k]
			}
			var s float64
			for j, v := range dense {
				dv := v - mean[j]
				s += dv * dv
			}
			ops.AddOps(int64(2 * row.Len))
			acc.sum += s
			return acc
		},
		func(a, b *fnormPart) *fnormPart { a.sum += b.sum; return a },
		func(*fnormPart) int64 { return 8 },
	)
	if err != nil {
		return 0, err
	}
	ctx.Cluster().FreeDriver(8)
	return agg.sum, nil
}

// sparkSums is one partial of the consolidated YtX job, flat: the YtX rows
// of the columns it touches packed d-wide in ytx (row i holds column
// rows[i]), plus XtX and ΣX. A partition's partial is laid out once per fit
// from the distinct columns of its fixed rows (see layoutSparkSums), so a
// pass only clears it and accumulates.
//
// The driver's fold target has the same type over the dense D×d jobSums:
// column j's row sits at j·d, seen marks the rows a partial has landed in,
// and rows lists them in landing order.
type sparkSums struct {
	d    int
	rows []int32
	seen []bool // fold target only
	ytx  []float64
	xtx  []float64
	sumX []float64
}

// bytes models the wire size when only sparse YtX entries are shipped.
func (s *sparkSums) bytes() int64 {
	d := int64(s.d)
	return int64(len(s.rows))*(8+d*8) + d*d*8 + d*8
}

// newSparkFold returns a fold target over sums; a nil xtx and sumX (the
// YtX-only join pass of the unoptimized baseline) skips those terms.
func newSparkFold(ytx *matrix.Dense, xtx, sumX []float64) *sparkSums {
	return &sparkSums{
		d:    ytx.C,
		rows: make([]int32, 0, ytx.R),
		seen: make([]bool, ytx.R),
		ytx:  ytx.Data,
		xtx:  xtx,
		sumX: sumX,
	}
}

// merge folds partial o into the fold target s. The driver folds partials in
// ascending task order, so each YtX row sums its partials in that order: the
// first touch copies the partial's row and later touches add to it, which is
// bit-identical to adopting the first partial's vector and adding the rest.
// XtX and ΣX add onto their zeroed targets. It returns s, the accumulator's
// fold value.
func (s *sparkSums) merge(o *sparkSums) *sparkSums {
	d := s.d
	for i, j := range o.rows {
		src := o.ytx[i*d : (i+1)*d]
		dst := s.ytx[int(j)*d : (int(j)+1)*d]
		if s.seen[j] {
			matrix.AXPY(1, src, dst)
			continue
		}
		s.seen[j] = true
		s.rows = append(s.rows, j)
		copy(dst, src)
	}
	if s.xtx != nil {
		matrix.AXPY(1, o.xtx, s.xtx)
		matrix.AXPY(1, o.sumX, s.sumX)
	}
	return s
}

// reset clears the fold target and the sums under it for a new pass.
func (s *sparkSums) reset() {
	for _, j := range s.rows {
		s.seen[j] = false
	}
	s.rows = s.rows[:0]
	clear(s.ytx)
	clear(s.xtx)
	clear(s.sumX)
}

// layoutSparkSums returns the flat partial for a partition's rows and its
// column offset table (off[j] is column j's row in the partial, -1 where the
// rows never touch j). The columns are the rows' non-zeros — every column of
// a row when dense, the densified no-mean-propagation ablation — packed in
// ascending order; withXtX adds the XtX and ΣX terms.
func layoutSparkSums(rows []matrix.SparseVector, dims, d int, dense, withXtX bool) (*sparkSums, []int32) {
	off := make([]int32, dims)
	for j := range off {
		off[j] = -1
	}
	for _, row := range rows {
		if dense {
			for j := 0; j < row.Len; j++ {
				off[j] = 0
			}
			continue
		}
		for _, j := range row.Indices {
			off[j] = 0
		}
	}
	n := 0
	for _, o := range off {
		if o == 0 {
			n++
		}
	}
	s := &sparkSums{d: d, rows: make([]int32, 0, n), ytx: make([]float64, n*d)}
	for j, o := range off {
		if o == 0 {
			off[j] = int32(len(s.rows))
			s.rows = append(s.rows, int32(j))
		}
	}
	if withXtX {
		s.xtx = make([]float64, d*d)
		s.sumX = make([]float64, d)
	}
	return s, off
}

// add folds column j's contribution a·xi into the partial through its offset
// table.
func (s *sparkSums) add(off []int32, j int, a float64, xi []float64) {
	o := int(off[j]) * s.d
	matrix.AXPY(a, xi, s.ytx[o:o+s.d])
}

// sparkScratch owns the per-fit reusable state of the Spark jobs: one scratch
// per partition (partition count is fixed for the life of the RDD) and the
// fold target over the driver-side jobSums.
//
// Ownership: every partition's partial is its own flat store, and the
// accumulator folds the partials into sums by copying or adding rows — it
// never keeps a reference to a partial. A pass therefore only has to clear
// the partials and the fold target before it runs; nothing is shared between
// them.
type sparkScratch struct {
	parts []sparkPartScratch
	sums  jobSums
	fold  *sparkSums
}

func newSparkScratch(partitions, dims, d int) *sparkScratch {
	sums := newJobSums(dims, d)
	sc := &sparkScratch{
		parts: make([]sparkPartScratch, partitions),
		sums:  sums,
		fold:  newSparkFold(sums.ytx, sums.xtx.Data, sums.sumX),
	}
	for p, ts := range newTaskScratches(partitions, d) {
		sc.parts[p].taskScratch = ts
	}
	return sc
}

// sparkPartScratch is one partition's task-local scratch, shared by the YtX
// and ss3 passes (which never run concurrently). Tasks for distinct
// partitions write distinct slots of the pre-sized parts slice, so the
// concurrent partition loop never races.
type sparkPartScratch struct {
	*taskScratch
	sums *sparkSums // flat YtX partial, laid out on the fit's first YtX pass
	off  []int32    // column → row of sums
}

// ytxPart returns partition task's scratch with its partial cleared for a
// new pass, laying the partial out from the partition's rows on first use.
func (sc *sparkScratch) ytxPart(task int, part []matrix.SparseVector, d int, meanProp bool) *sparkPartScratch {
	ps := &sc.parts[task]
	if ps.sums == nil {
		ps.sums, ps.off = layoutSparkSums(part, sc.sums.ytx.R, d, !meanProp, true)
		return ps
	}
	clear(ps.sums.ytx)
	clear(ps.sums.xtx)
	clear(ps.sums.sumX)
	return ps
}

// sparkYtXJob is Algorithm 5: one map pass computing X on demand, folding
// XtX/YtX/ΣX partials into accumulators inside the map (no reduce stage).
func sparkYtXJob(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], em *emDriver, opt Options, scr *sparkScratch) (jobSums, error) {
	d := em.d
	fold := scr.fold
	fold.reset()
	acc := rdd.NewAccumulator(ctx, "YtXSum", fold, (*sparkSums).merge, (*sparkSums).bytes)
	err := y.ForeachPartition("YtXJob", func(task int, part []matrix.SparseVector, ops *rdd.TaskOps) {
		ps := scr.ytxPart(task, part, d, opt.MeanPropagation)
		local, off, xi := ps.sums, ps.off, ps.xi
		for _, row := range part {
			if !opt.MeanPropagation {
				row = ps.densify(row, em.mean)
			}
			computeRowLatent(row, em, opt.MeanPropagation, xi)
			for k, j := range row.Indices {
				local.add(off, j, row.Values[k], xi)
			}
			for a := 0; a < d; a++ {
				va := xi[a]
				base := a * d
				for b := 0; b < d; b++ {
					local.xtx[base+b] += va * xi[b]
				}
			}
			matrix.AXPY(1, xi, local.sumX)
			ops.AddOps(int64(2*row.NNZ()*d + d*d + d))
		}
		acc.Merge(task, local)
	})
	if err != nil {
		return jobSums{}, err
	}
	// Value folds every partial into scr.sums, the fold target's storage.
	acc.Value()
	return scr.sums, nil
}

func sparkSS3Job(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], em *emDriver, cNew *matrix.Dense, opt Options, scr *sparkScratch) (float64, error) {
	d := em.d
	acc := rdd.NewAccumulator(ctx, "ss3", 0.0,
		func(a, b float64) float64 { return a + b },
		func(float64) int64 { return 8 },
	)
	err := y.ForeachPartition("ss3Job", func(task int, part []matrix.SparseVector, ops *rdd.TaskOps) {
		ps := &scr.parts[task] // the ss3 pass only uses the per-row buffers
		xi, ct := ps.xi, ps.ct
		var local float64
		for _, row := range part {
			if !opt.MeanPropagation {
				row = ps.densify(row, em.mean)
			}
			computeRowLatent(row, em, opt.MeanPropagation, xi)
			if opt.AssociativeSS3 {
				// Eq. 3 with associativity: Cᵀ·Yiᵀ touches only non-zeros.
				for k := range ct {
					ct[k] = 0
				}
				for k, j := range row.Indices {
					matrix.AXPY(row.Values[k], cNew.Row(j), ct)
				}
				local += matrix.Dot(xi, ct)
				ops.AddOps(int64(2*row.NNZ()*d + d))
				continue
			}
			// Dense order (Xi·Cᵀ)·Yiᵀ: O(D·d) per row.
			if ps.xc == nil {
				ps.xc = make([]float64, cNew.R)
			}
			denseXC(xi, cNew, ps.xc)
			var s float64
			for k, j := range row.Indices {
				s += ps.xc[j] * row.Values[k]
			}
			local += s
			ops.AddOps(int64(row.NNZ()*d + cNew.R*d + row.NNZ()))
		}
		acc.Merge(task, local)
	})
	if err != nil {
		return 0, err
	}
	return acc.Value(), nil
}

// sparkUnoptimized materializes X as a (never-cached, so disk-resident) RDD
// and runs separate XtX and YtX passes over it — the baseline of Table 3's
// "intermediate data" row.
func sparkUnoptimized(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], dims int, em *emDriver, opt Options) (jobSums, error) {
	d := em.d
	// Materialize X alongside Y so later passes can join them.
	pairs := rdd.Map(y, "XJob", func(row matrix.SparseVector) pairYX {
		r := row
		if !opt.MeanPropagation {
			r = densifyCentered(row, em.mean)
		}
		xi := make([]float64, d)
		computeRowLatent(r, em, opt.MeanPropagation, xi)
		return pairYX{y: row, x: xi}
	}, func(p pairYX) int64 {
		return mapred.BytesOfSparseVec(p.y) + mapred.BytesOfVec(p.x)
	}, int64(d)*8)

	// Pass 1: XtX and ΣX from the stored X.
	sums := newJobSums(dims, d)
	xtxFold := newSparkFold(sums.ytx, sums.xtx.Data, sums.sumX)
	xtxAcc := rdd.NewAccumulator(ctx, "XtXSum", xtxFold, (*sparkSums).merge, (*sparkSums).bytes)
	err := pairs.ForeachPartition("XtXJob", func(task int, part []pairYX, ops *rdd.TaskOps) {
		local := &sparkSums{d: d, xtx: make([]float64, d*d), sumX: make([]float64, d)}
		for _, p := range part {
			for a := 0; a < d; a++ {
				va := p.x[a]
				base := a * d
				for b := 0; b < d; b++ {
					local.xtx[base+b] += va * p.x[b]
				}
			}
			matrix.AXPY(1, p.x, local.sumX)
			ops.AddOps(int64(d*d + d))
		}
		xtxAcc.Merge(task, local)
	})
	if err != nil {
		return jobSums{}, err
	}

	// Pass 2: YtX from Y joined with the stored X.
	ytxFold := newSparkFold(sums.ytx, nil, nil)
	ytxAcc := rdd.NewAccumulator(ctx, "YtXSum", ytxFold, (*sparkSums).merge, (*sparkSums).bytes)
	err = pairs.ForeachPartition("YtXJoinJob", func(task int, part []pairYX, ops *rdd.TaskOps) {
		ys := make([]matrix.SparseVector, len(part))
		for i, p := range part {
			ys[i] = p.y
		}
		local, off := layoutSparkSums(ys, dims, d, !opt.MeanPropagation, false)
		for _, p := range part {
			row := p.y
			if !opt.MeanPropagation {
				row = densifyCentered(row, em.mean)
			}
			for k, j := range row.Indices {
				local.add(off, j, row.Values[k], p.x)
			}
			ops.AddOps(int64(row.NNZ() * d))
		}
		ytxAcc.Merge(task, local)
	})
	if err != nil {
		return jobSums{}, err
	}
	xtxAcc.Value()
	ytxAcc.Value()
	return sums, nil
}
