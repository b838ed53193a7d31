// The flat-slab shuffle fast path. Every hot sPCA job — column means, the
// Frobenius norm, the consolidated YtX/XtX/ΣX pass, ss3, and the rsvd
// projection and Bᵀ jobs — shuffles a small dense integer key range whose
// values are flat float64 vectors. For that shape the generic map-based
// emitter, the post-hoc digest walks, and (dominant of all) the
// fmt.Sprint-based key sort are pure overhead: runDense replaces them with
// pooled per-task slabs (rows in fixed []float64 chunks plus one index
// table), incremental byte/digest accounting at emit time, and an
// allocation-free key comparator that reproduces the generic path's string
// order exactly.
//
// The fast path is an optimization, not a semantic fork: results, simulated
// -time charges, trace spans, and fault/corruption behavior are bit-identical
// to the generic path (dense_test.go pins metrics equality under fault plans;
// the golden fingerprint suites pin end-to-end model identity).
//
// Accumulate in place. A stateful in-mapper combiner need not keep its own
// copy of its partials and emit them from Cleanup: RowEmitter.Row hands it
// key k's row inside the task's slab, zeroed and accounted at first touch,
// and the mapper folds every later contribution straight into it. The slab
// row is then the task's one copy of that partial, and it is what the
// shuffle reads. Three rules keep this exact:
//   - the row's modeled size (ValueBytes) depends only on its length, so the
//     bytes and digest stamped at claim time still hold after accumulation;
//   - a row stays where it was claimed until the attempt ends: slab storage
//     is chunked and a full chunk is followed by a new one, never regrown;
//   - a retried attempt rewinds the slab, so the fresh mapper re-claims every
//     row zeroed and recomputes it from its input split.
//
// The generic path (Engine.DisableDense) hands out a row held in the
// emitter's value map instead, so both paths produce the same bits.
package mapred

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"spca/internal/cluster"
	"spca/internal/parallel"
	"spca/internal/trace"
)

// DenseSpec opts a job into the flat-slab shuffle fast path. It applies to
// jobs whose keys form a dense integer interval [MinKey, MinKey+Keys) and
// whose mappers emit each key at most once per task — always true for the
// stateful in-mapper combiners (§4.1), which flush one value per key from
// Cleanup. With a Combine, duplicate in-task emits merge in place; without
// one they panic (a naive mapper that needs per-emit boxing should not
// declare a spec).
//
// Accounting parity with the generic path holds by construction: payload
// bytes and the cluster.PayloadDigest are maintained incrementally at first
// emit, which is sound because the digest combines entries by wrapping
// addition (order-independent) and a Combine merge never changes a value's
// modeled wire size — the merged value keeps the stored length, enforced at
// merge time. The consume side re-walks the slab, mirroring the generic
// path's commit/verify handshake bit for bit.
//
// Lifetime contract: values handed to Reduce (and results that alias them,
// e.g. a Reduce returning vs[0]) point into pooled slabs and stay valid only
// until the engine's next Run; drivers must copy what they keep, exactly as
// they already must for pooled mapper buffers. Reduce must not retain the
// values slice itself — it is reused between keys.
type DenseSpec struct {
	// MinKey is the smallest key in the job's key space (e.g. the negative
	// composite keys routing XtX/ΣX partials).
	MinKey int
	// Keys is the size of the key interval: valid keys satisfy
	// MinKey <= k < MinKey+Keys.
	Keys int
	// Width is the value width in float64 words (1 for scalar-valued jobs).
	Width int
	// WideKeys overrides Width for individual keys — e.g. the d²-wide XtX
	// partial riding in a job of d-wide YtX rows.
	WideKeys map[int]int
}

// widthOf returns the declared width bound for a key slot.
func (s *DenseSpec) widthOf(slot int) int {
	if s.WideKeys != nil {
		if w, ok := s.WideKeys[s.MinKey+slot]; ok {
			return w
		}
	}
	return s.Width
}

// chunkFloats is the slab's storage unit in float64s (8 KiB).
const chunkFloats = 1024

// chunk returns the chunk size of the spec's slabs: about chunkFloats, a
// whole number of Width-wide rows, capped by the spec's total float count
// with every slot touched (so a single-scalar job's chunk is one float).
func (s *DenseSpec) chunk() int {
	total := s.Keys * s.Width
	for k, w := range s.WideKeys {
		if slot := k - s.MinKey; slot >= 0 && slot < s.Keys {
			total += w - s.Width
		}
	}
	return min(max(chunkFloats/s.Width, 1)*s.Width, total)
}

// slabRow is one claimed row: slot's n floats at off in chunk.
type slabRow struct{ slot, chunk, off, n int32 }

// denseSlab is one map task's flat shuffle payload: value rows claimed in
// first-touch order inside fixed chunks, with a per-slot index into the row
// list in place of a map. A full chunk is followed by the next one, never
// regrown, so a claimed row does not move. The engine pools slabs in one
// free list shared by every dense job, chunks and index table included; data
// handed out through Reduce stays valid until the next Run checks the slab
// out again.
type denseSlab struct {
	spec   *DenseSpec
	chunks [][]float64 // row storage, kept across attempts, jobs and Runs
	cur    int         // chunk being filled
	used   int         // floats claimed in chunks[cur]
	// idx maps a slot to its row in rows, -1 if untouched. Every entry up to
	// cap(idx) is -1 except the touched slots, so reslicing it to another
	// spec's Keys needs no fill.
	idx   []int32
	rows  []slabRow // claimed rows, first-touch order
	bytes int64     // modeled wire size, maintained at first emit
	dig   cluster.PayloadDigest
}

// prepare readies the slab for a fresh Run under spec: the touched slots are
// reset, then the index table is resliced to spec's key range.
func (s *denseSlab) prepare(spec *DenseSpec) {
	s.reset()
	if cap(s.idx) < spec.Keys {
		s.idx = newIndex(spec.Keys)
	}
	s.spec = spec
	s.idx = s.idx[:spec.Keys]
}

// newIndex returns an all-untouched index table of n slots.
func newIndex(n int) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// reset rewinds the slab for a retry of a failed attempt (or the next Run's
// first attempt): only the touched slots are cleared and the chunks are
// refilled from the first, so a warm slab resets in O(touched) with zero
// allocations.
func (s *denseSlab) reset() {
	for _, r := range s.rows {
		s.idx[r.slot] = -1
	}
	s.rows = s.rows[:0]
	s.cur, s.used = 0, 0
	s.bytes = 0
	s.dig.Reset()
}

// claim reserves a width-long row for slot and returns it for the first
// store. The row goes in the current chunk if it fits, else in the next
// chunk that holds it; past the last chunk a new one is appended, of the
// spec's chunk size or of the row's width if that is larger. Slab memory so
// scales with the keys a task actually emits, and no row is ever copied. The
// region is not zeroed: the store overwrites all of it.
func (s *denseSlab) claim(slot, width int) []float64 {
	for s.cur < len(s.chunks) && s.used+width > len(s.chunks[s.cur]) {
		s.cur++
		s.used = 0
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]float64, max(width, s.spec.chunk())))
	}
	o := s.used
	s.used += width
	s.idx[slot] = int32(len(s.rows))
	s.rows = append(s.rows, slabRow{slot: int32(slot), chunk: int32(s.cur), off: int32(o), n: int32(width)})
	return s.chunks[s.cur][o : o+width : o+width]
}

// at returns the i-th claimed row.
func (s *denseSlab) at(i int32) []float64 {
	r := s.rows[i]
	return s.chunks[r.chunk][r.off : r.off+r.n : r.off+r.n]
}

// row returns slot's stored row, or nil when untouched.
func (s *denseSlab) row(slot int) []float64 {
	if i := s.idx[slot]; i >= 0 {
		return s.at(i)
	}
	return nil
}

// slabsFor checks out splits prepared slabs for a dense job from the
// engine's free list. Cold slabs, their row lists, and index tables too
// short for spec are carved from one allocation each. A cold row list starts
// with room for a full chunk of spec's rows instead of growing from one by
// copying.
func (e *Engine) slabsFor(spec *DenseSpec, splits int) []*denseSlab {
	e.mu.Lock()
	take := min(len(e.slabs), splits)
	slabs := make([]*denseSlab, splits)
	copy(slabs, e.slabs[len(e.slabs)-take:])
	e.slabs = e.slabs[:len(e.slabs)-take]
	e.mu.Unlock()
	block := make([]denseSlab, splits-take)
	perSlab := spec.chunk() / spec.Width
	rows := make([]slabRow, len(block)*perSlab)
	for i := range block {
		block[i].rows, rows = rows[:0:perSlab], rows[perSlab:]
		slabs[take+i] = &block[i]
	}
	short := 0
	for _, s := range slabs {
		if cap(s.idx) < spec.Keys {
			short++
		}
	}
	if short > 0 {
		tables := newIndex(short * spec.Keys)
		for _, s := range slabs {
			if cap(s.idx) < spec.Keys {
				s.idx, tables = tables[:spec.Keys:spec.Keys], tables[spec.Keys:]
			}
		}
	}
	for _, s := range slabs {
		s.prepare(spec)
	}
	return slabs
}

// putSlabs returns a Run's slabs to the free list. The data is not cleared —
// the job's result map may still alias it — so the previous Run's views go
// stale only when the next checkout rewinds the slab, which is the
// documented lifetime contract.
func (e *Engine) putSlabs(slabs []*denseSlab) {
	e.mu.Lock()
	e.slabs = append(e.slabs, slabs...)
	e.mu.Unlock()
}

// denseCodec adapts one value type onto flat slab rows without boxing.
type denseCodec[V any] struct {
	// width is the logical row length of a value.
	width func(v V) int
	// store writes v into a freshly claimed row of exactly width(v) words.
	store func(dst []float64, v V)
	// view reconstructs the value from a stored logical row.
	view func(row []float64) V
	// merge folds a duplicate emit into the stored row via the job's
	// Combine, keeping the stored length (so the incremental digest and byte
	// accounting stay valid).
	merge func(dst []float64, v V, combine func(a, b V) V)
}

// vecCodec lays []float64 values out as slab rows directly.
var vecCodec = denseCodec[[]float64]{
	width: func(v []float64) int { return len(v) },
	store: func(dst, v []float64) { copy(dst, v) },
	view:  func(row []float64) []float64 { return row[:len(row):len(row)] },
	merge: func(dst, v []float64, combine func(a, b []float64) []float64) {
		merged := combine(dst, v)
		if len(merged) != len(dst) {
			panic("mapred: dense Combine changed the value length")
		}
		if len(merged) > 0 && &merged[0] != &dst[0] {
			copy(dst, merged)
		}
	},
}

// scalarCodec packs float64 values one word per row.
var scalarCodec = denseCodec[float64]{
	width: func(float64) int { return 1 },
	store: func(dst []float64, v float64) { dst[0] = v },
	view:  func(row []float64) float64 { return row[0] },
	merge: func(dst []float64, v float64, combine func(a, b float64) float64) {
		dst[0] = combine(dst[0], v)
	},
}

// denseEmitter is the fast path's Emitter: emits land in the task's slab,
// with bytes and digest folded in at first emit. Steady state (warm slab,
// in-range keys) performs zero allocations per emit.
type denseEmitter[V any] struct {
	name    string
	slab    *denseSlab
	combine func(a, b V) V
	cd      denseCodec[V]
	kb      func(int) int64
	vb      func(V) int64
	ops     int64
}

func (em *denseEmitter[V]) AddOps(n int64) { em.ops += n }

// reset rewinds a failed attempt so the retry reuses the slab in place.
func (em *denseEmitter[V]) reset() {
	em.slab.reset()
	em.ops = 0
}

func (em *denseEmitter[V]) Emit(k int, v V) {
	s := em.slab
	slot := em.slot(k)
	if i := s.idx[slot]; i >= 0 {
		if em.combine == nil {
			panic(fmt.Sprintf("mapred: job %q emitted key %d twice in one task without a Combine",
				em.name, k))
		}
		em.cd.merge(s.at(i), v, em.combine)
		return
	}
	row := em.claim(slot, k, em.cd.width(v))
	em.cd.store(row, v)
	em.account(k, row)
}

// Row implements RowEmitter on the slab: the key's row is claimed in the
// task's shuffle slab, zeroed, and accounted at first touch, and the mapper
// accumulates into it there. The accounting is exact because the modeled
// value size depends only on the row's length, never on what it holds.
func (em *denseEmitter[V]) Row(k, width int) []float64 {
	s := em.slab
	slot := em.slot(k)
	if i := s.idx[slot]; i >= 0 {
		if n := s.rows[i].n; int(n) != width {
			panic(fmt.Sprintf("mapred: job %q asked for a width-%d row for key %d holding %d",
				em.name, width, k, n))
		}
		return s.at(i)
	}
	if em.combine == nil {
		panic(fmt.Sprintf("mapred: job %q called Row without a Combine", em.name))
	}
	row := em.claim(slot, k, width)
	clear(row)
	em.account(k, row)
	return row
}

// slot maps key k to its slab slot, panicking outside the spec's range.
func (em *denseEmitter[V]) slot(k int) int {
	spec := em.slab.spec
	slot := k - spec.MinKey
	if slot < 0 || slot >= spec.Keys {
		panic(fmt.Sprintf("mapred: job %q emitted key %d outside its DenseSpec range [%d,%d)",
			em.name, k, spec.MinKey, spec.MinKey+spec.Keys))
	}
	return slot
}

// claim reserves key k's first, w-long row in the slab.
func (em *denseEmitter[V]) claim(slot, k, w int) []float64 {
	s := em.slab
	if maxW := s.spec.widthOf(slot); w > maxW {
		panic(fmt.Sprintf("mapred: job %q emitted a width-%d value for key %d; DenseSpec allows %d",
			em.name, w, k, maxW))
	}
	return s.claim(slot, w)
}

// account folds a freshly claimed row's modeled size into the slab's bytes
// and digest.
func (em *denseEmitter[V]) account(k int, row []float64) {
	s := em.slab
	kb, vb := em.kb(k), em.vb(em.cd.view(row))
	s.bytes += kb + vb
	s.dig.Add(kb, vb)
}

// TaskEmitter is one map task's flat-slab emitter outside any Run: the
// emitter a mapper sees inside a dense []float64 job, for driving a mapper in
// isolation (the steady-state allocation tests). Reset rewinds it the way a
// retried attempt is rewound, keeping the slab's storage.
type TaskEmitter struct{ denseEmitter[[]float64] }

// NewTaskEmitter returns a TaskEmitter over a fresh slab of spec whose
// repeated emits merge through combine.
func NewTaskEmitter(spec *DenseSpec, combine func(a, b []float64) []float64) *TaskEmitter {
	slab := &denseSlab{}
	slab.prepare(spec)
	return &TaskEmitter{denseEmitter[[]float64]{
		name: "task", slab: slab, combine: combine, cd: vecCodec, kb: BytesOfInt, vb: BytesOfVec,
	}}
}

// Reset rewinds the emitter for a fresh attempt.
func (t *TaskEmitter) Reset() { t.reset() }

// slabPayload recomputes a slab's modeled wire size and digest by walking
// its touched slots — the consume-side verification mirroring payloadSize on
// the generic path. Walk order is first-touch order, which is fine: the
// digest is order-independent by construction.
func slabPayload[V any](s *denseSlab, kbf func(int) int64, vbf func(V) int64, cd denseCodec[V]) (int64, uint64) {
	var total int64
	var dig cluster.PayloadDigest
	for i, r := range s.rows {
		kb := kbf(int(r.slot) + s.spec.MinKey)
		vb := vbf(cd.view(s.at(int32(i))))
		total += kb + vb
		dig.Add(kb, vb)
	}
	return total, dig.Sum()
}

// denseKeyLess orders int keys exactly as the generic path's fmt.Sprint
// string sort does, without allocating: strconv formats both keys into stack
// buffers and bytes.Compare orders them. Reduce-task partitioning derives
// from this order, so under a FaultPlan the per-(task, attempt) fault draws
// — and hence every recovery charge — only match the generic path if the
// order matches exactly.
func denseKeyLess(a, b int) bool {
	var ab, bb [20]byte
	as := strconv.AppendInt(ab[:0], int64(a), 10)
	bs := strconv.AppendInt(bb[:0], int64(b), 10)
	return bytes.Compare(as, bs) < 0
}

// runDense is Run's flat-slab fast path. Control flow, phase accounting,
// trace spans, and every fault/corruption decision mirror the generic path
// exactly — the differential tests pin Metrics equality — while the shuffle
// state lives in pooled slabs instead of maps.
func runDense[I, V any](e *Engine, job *Job[I, int, V, V], input []I, cd denseCodec[V]) (map[int]V, error) {
	spec := job.Dense
	if spec.Keys <= 0 || spec.Width <= 0 {
		return nil, fmt.Errorf("mapred: job %q has an invalid DenseSpec (Keys=%d, Width=%d)",
			job.Name, spec.Keys, spec.Width)
	}
	// Entry poll, before the job draws its sequence number: an interrupted
	// run must not advance the fault cursor for a job it never starts.
	if err := e.Cluster.Interrupted(); err != nil {
		return nil, fmt.Errorf("mapred: job %q: %w", job.Name, err)
	}
	splits := e.NumSplits(len(input))
	plan, seq := e.plan()
	mapPhase := fmt.Sprintf("%s#%d/map", job.Name, seq)
	maxAtt := plan.Attempts(e.MaxAttempts)
	kbf, vbf := job.sizeFns()
	rbf := job.resultFn()

	tr := e.Cluster.Tracer()
	if tr != nil {
		tr.Begin(job.Name, trace.KindJob,
			trace.I("seq", int64(seq)), trace.I("splits", int64(splits)))
	}

	// ---- Map phase ----
	type taskOut struct {
		ops    int64
		att    int    // 1-based attempt that committed this output
		bytes  int64  // modeled wire size of the output
		digest uint64 // checksum stamped by the committing attempt
	}
	outs := make([]taskOut, splits)
	mapFaults := make([]taskFaults, splits)
	var inputBytes int64
	if job.InputBytes != nil {
		for _, rec := range input {
			inputBytes += job.InputBytes(rec)
		}
	}
	slabs := e.slabsFor(spec, splits)
	defer e.putSlabs(slabs)

	// Worker-pool execution (runTasks): the per-task emitters live in one
	// batch allocation. Fault draws are keyed by (phase, task, attempt), so
	// dynamic task-to-worker assignment cannot change any simulated-time
	// charge.
	ems := make([]denseEmitter[V], splits)
	workers := min(e.Cluster.TotalCores(), splits, parallel.Workers())
	runTasks(splits, workers, func(_, task int) {
		lo := task * len(input) / splits
		hi := (task + 1) * len(input) / splits
		tf := &mapFaults[task]
		em := &ems[task]
		*em = denseEmitter[V]{
			name: job.Name, slab: slabs[task], combine: job.Combine,
			cd: cd, kb: kbf, vb: vbf,
		}
		committed := false
		for att := 1; att <= maxAtt && !committed; att++ {
			if att > 1 {
				em.reset() // retries rewind the slab in place
			}
			m := job.NewMapper(task)
			for i := lo; i < hi; i++ {
				m.Map(input[i], em)
			}
			m.Cleanup(em)
			if plan.AttemptFails(mapPhase, task, att) {
				tf.failed++
				tf.wasted += em.ops
				continue
			}
			outs[task] = taskOut{
				ops: em.ops, att: att,
				bytes: em.slab.bytes, digest: em.slab.dig.Sum(),
			}
			tf.chargeStraggler(plan, mapPhase, task, att, em.ops)
			committed = true
		}
		if !committed {
			tf.exhausted = true
		}
	})

	// Node-loss semantics, identical to the generic path: completed map
	// outputs on a lost node are charged as re-executed.
	if plan.Enabled() {
		nodes := e.Cluster.Config().Nodes
		for n := 0; n < nodes; n++ {
			if !plan.NodeLost(mapPhase, n) {
				continue
			}
			for t := n; t < splits; t += nodes {
				if mapFaults[t].exhausted {
					continue
				}
				mapFaults[t].failed++
				mapFaults[t].wasted += outs[t].ops
			}
		}
	}

	var mapOps int64
	mapStats := cluster.PhaseStats{
		Name:    job.Name + "/map",
		Tasks:   int64(splits),
		Records: int64(len(input)),
	}
	sumFaults(&mapStats, mapFaults)
	for t := range outs {
		mapOps += outs[t].ops
	}
	for t := range mapFaults {
		if mapFaults[t].exhausted {
			mapStats.ComputeOps = mapOps
			e.Cluster.RunPhase(mapStats)
			if tr != nil {
				tr.End(trace.I("failed", 1))
			}
			return nil, fmt.Errorf("%w: job %q map task %d (%d attempts)",
				ErrTaskFailed, job.Name, t, maxAtt)
		}
	}

	// ---- Shuffle: verify each slab's checksum and collect the key set ----
	var shuffleBytes int64
	seen := make([]bool, spec.Keys)
	nKeys := 0
	for t := range outs {
		o := &outs[t]
		tb, sum := slabPayload(slabs[t], kbf, vbf, cd)
		if tb != o.bytes || sum != o.digest {
			mapStats.ComputeOps = mapOps
			mapStats.CorruptPayloads++
			e.Cluster.RunPhase(mapStats)
			if tr != nil {
				tr.End(trace.I("failed", 1))
			}
			return nil, fmt.Errorf("%w: job %q map task %d shuffle payload",
				ErrCorruptPayload, job.Name, t)
		}
		if !chargeCorruptFetches(&mapStats, plan, mapPhase, t, o.att, maxAtt, o.ops, tb) {
			mapStats.ComputeOps = mapOps
			e.Cluster.RunPhase(mapStats)
			if tr != nil {
				tr.End(trace.I("failed", 1))
			}
			return nil, fmt.Errorf("%w: job %q map task %d payload corrupt after %d re-fetches",
				ErrCorruptPayload, job.Name, t, maxAtt)
		}
		shuffleBytes += tb
		for _, r := range slabs[t].rows {
			if !seen[r.slot] {
				seen[r.slot] = true
				nKeys++
			}
		}
	}
	mapStats.ComputeOps = mapOps
	mapStats.ShuffleBytes = shuffleBytes
	mapStats.DiskBytes = inputBytes + shuffleBytes
	e.Cluster.RunPhase(mapStats)

	// Boundary poll between the fully charged map phase and the reduce phase,
	// mirroring the generic path: metrics and trace stay consistent because
	// the map charge above committed before the poll.
	if err := e.Cluster.Interrupted(); err != nil {
		if tr != nil {
			tr.End(trace.I("failed", 1))
		}
		return nil, fmt.Errorf("mapred: job %q: %w", job.Name, err)
	}

	// ---- Reduce phase ----
	reducers := e.Reducers
	if reducers <= 0 {
		reducers = e.Cluster.TotalCores()
	}
	keys := make([]int, 0, nKeys)
	for slot, ok := range seen {
		if ok {
			keys = append(keys, spec.MinKey+slot)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return denseKeyLess(keys[i], keys[j]) })

	redTasks := reducers
	if len(keys) < redTasks {
		redTasks = len(keys)
	}
	if redTasks == 0 {
		redTasks = 1
	}
	redPhase := fmt.Sprintf("%s#%d/reduce", job.Name, seq)
	// Reduce outputs in key order: each task writes its own range, and a
	// retried attempt overwrites it, so no per-task map is needed.
	results := make([]V, len(keys))
	type redOut struct {
		att    int
		ops    int64
		bytes  int64
		digest uint64
	}
	redOuts := make([]redOut, redTasks)
	redFaults := make([]taskFaults, redTasks)
	redOcs := make([]opsCounter, redTasks)
	slots := min(reducers, e.Cluster.TotalCores(), redTasks, parallel.Workers())
	// One gather buffer per worker, carved from a single arena.
	gather := make([]V, slots*len(slabs))
	runTasks(redTasks, slots, func(w, task int) {
		lo := task * len(keys) / redTasks
		hi := (task + 1) * len(keys) / redTasks
		taskKeys := keys[lo:hi]
		taskRes := results[lo:hi]
		tf := &redFaults[task]
		// Per-key value gather, in map-task order (the same order the
		// generic shuffle builds its groups in), reused across keys.
		vals := gather[w*len(slabs) : w*len(slabs) : (w+1)*len(slabs)]
		committed := false
		for att := 1; att <= maxAtt && !committed; att++ {
			oc := &redOcs[task]
			oc.n = 0
			var taskBytes int64
			var dig cluster.PayloadDigest
			for i, k := range taskKeys {
				slot := k - spec.MinKey
				vals = vals[:0]
				for _, s := range slabs {
					if row := s.row(slot); row != nil {
						vals = append(vals, cd.view(row))
					}
				}
				r := job.Reduce(k, vals, oc)
				kb, rb := kbf(k), rbf(r)
				taskBytes += rb
				dig.Add(kb, rb)
				taskRes[i] = r
			}
			if plan.AttemptFails(redPhase, task, att) {
				tf.failed++
				tf.wasted += oc.n
				continue
			}
			tf.chargeStraggler(plan, redPhase, task, att, oc.n)
			redOuts[task] = redOut{att: att, ops: oc.n, bytes: taskBytes, digest: dig.Sum()}
			committed = true
		}
		if !committed {
			tf.exhausted = true
		}
	})
	var redOps, outBytes int64
	for t := range redOuts {
		redOps += redOuts[t].ops
		outBytes += redOuts[t].bytes
	}
	redStats := cluster.PhaseStats{
		Name:              job.Name + "/reduce",
		ComputeOps:        redOps,
		DiskBytes:         outBytes,
		Tasks:             int64(redTasks),
		MaterializedBytes: outBytes,
	}
	sumFaults(&redStats, redFaults)
	for t := range redFaults {
		if redFaults[t].exhausted {
			redStats.DiskBytes = 0 // aborted job commits no output
			redStats.MaterializedBytes = 0
			e.Cluster.RunPhase(redStats)
			if tr != nil {
				tr.End(trace.I("failed", 1))
			}
			return nil, fmt.Errorf("%w: job %q reduce task %d (%d attempts)",
				ErrTaskFailed, job.Name, t, maxAtt)
		}
	}
	// Driver-consume verification of the reduce part files, mirroring the
	// generic path.
	for t := 0; t < redTasks; t++ {
		lo := t * len(keys) / redTasks
		hi := (t + 1) * len(keys) / redTasks
		var tb int64
		var dig cluster.PayloadDigest
		for i := lo; i < hi; i++ {
			kb, rb := kbf(keys[i]), rbf(results[i])
			tb += rb
			dig.Add(kb, rb)
		}
		if tb != redOuts[t].bytes || dig.Sum() != redOuts[t].digest {
			redStats.CorruptPayloads++
			e.Cluster.RunPhase(redStats)
			if tr != nil {
				tr.End(trace.I("failed", 1))
			}
			return nil, fmt.Errorf("%w: job %q reduce task %d output",
				ErrCorruptPayload, job.Name, t)
		}
		if !chargeCorruptFetches(&redStats, plan, redPhase, t, redOuts[t].att, maxAtt, redOuts[t].ops, tb) {
			e.Cluster.RunPhase(redStats)
			if tr != nil {
				tr.End(trace.I("failed", 1))
			}
			return nil, fmt.Errorf("%w: job %q reduce task %d output corrupt after %d re-fetches",
				ErrCorruptPayload, job.Name, t, maxAtt)
		}
	}
	e.Cluster.RunPhase(redStats)
	if tr != nil {
		tr.End(trace.I("reducers", int64(redTasks)), trace.I("shuffle_bytes", shuffleBytes))
	}
	result := make(map[int]V, len(keys))
	for i, k := range keys {
		result[k] = results[i]
	}
	return result, nil
}

// runTasks runs fn for every task in [0, tasks) on workers workers that pull
// task indices from an atomic counter: workers-1 goroutines plus the calling
// goroutine as worker 0, so a one-worker phase starts no goroutine.
func runTasks(tasks, workers int, fn func(worker, task int)) {
	var next atomic.Int64
	work := func(w int) {
		for {
			task := int(next.Add(1)) - 1
			if task >= tasks {
				return
			}
			fn(w, task)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
