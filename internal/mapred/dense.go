// The flat-slab shuffle fast path. Every hot sPCA job — column means, the
// Frobenius norm, the consolidated YtX/XtX/ΣX pass, ss3, and the rsvd
// projection and Bᵀ jobs — shuffles a small dense integer key range whose
// values are flat float64 vectors. For that shape the generic map-based
// emitter, the post-hoc digest walks, and (dominant of all) the
// fmt.Sprint-based key sort are pure overhead: runDense replaces them with
// pooled per-task slabs ([]float64 rows plus an offset table), incremental
// byte/digest accounting at emit time, and an allocation-free key
// comparator that reproduces the generic path's string order exactly.
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
//   - a row is valid only until the next claim of a new key in the task,
//     because growing the slab moves its storage;
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

// slabKey pools slabs by layout shape rather than by spec pointer, so
// engines that outlive many fits (each building fresh specs) keep a bounded
// pool: one entry per distinct job shape.
type slabKey struct {
	minKey, keys, width int
}

func (s *DenseSpec) key() slabKey {
	return slabKey{minKey: s.MinKey, keys: s.Keys, width: s.Width}
}

// denseSlab is one map task's flat shuffle payload: value rows packed into a
// single []float64 in first-touch order, with a per-slot offset table in
// place of a map. Slabs are pooled on the engine and reused across jobs and
// EM iterations; data handed out through Reduce stays valid until the next
// Run checks the slab out again.
type denseSlab struct {
	spec    *DenseSpec
	data    []float64 // packed value rows, first-touch order
	off     []int32   // per slot: row offset into data, -1 if untouched
	n       []int32   // per slot: logical row length
	touched []int32   // touched slots in first-touch order
	total   int       // float capacity if every slot were touched (growth bound)
	bytes   int64     // modeled wire size, maintained at first emit
	dig     cluster.PayloadDigest
}

// prepare readies the slab for a fresh Run under spec. Same-spec reuse (the
// steady state of a fit loop holding one spec per job) only rewinds the
// touched slots; a different spec of the same shape rebuilds the offset
// table but keeps the storage.
func (s *denseSlab) prepare(spec *DenseSpec) {
	if s.spec == spec && len(s.off) == spec.Keys {
		s.reset()
		return
	}
	s.spec = spec
	s.total = spec.Keys * spec.Width
	for k, w := range spec.WideKeys {
		if slot := k - spec.MinKey; slot >= 0 && slot < spec.Keys {
			s.total += w - spec.Width
		}
	}
	s.data = s.data[:0]
	s.touched = s.touched[:0]
	if cap(s.off) < spec.Keys {
		s.off = make([]int32, spec.Keys)
		s.n = make([]int32, spec.Keys)
	}
	s.off = s.off[:spec.Keys]
	s.n = s.n[:spec.Keys]
	for i := range s.off {
		s.off[i] = -1
	}
	s.bytes = 0
	s.dig.Reset()
}

// reset rewinds the slab for a retry of a failed attempt (or the next Run's
// first attempt): only the touched slots are cleared, so a warm slab resets
// in O(touched) with zero allocations.
func (s *denseSlab) reset() {
	for _, slot := range s.touched {
		s.off[slot] = -1
	}
	s.touched = s.touched[:0]
	s.data = s.data[:0]
	s.bytes = 0
	s.dig.Reset()
}

// claim reserves a width-long row for slot and returns it for the first
// store. Rows pack in first-touch order, so slab memory scales with the keys
// a task actually emits, not with the full key space. The region is not
// zeroed: the store overwrites all of it, and nothing reads beyond the
// logical length. Growth is 4× but capped at the spec's total float count —
// a slab whose spec fits entirely under the first allocation (e.g. a
// single-scalar job) allocates exactly once and never grows again.
func (s *denseSlab) claim(slot, width int) []float64 {
	o := len(s.data)
	if cap(s.data) < o+width {
		c := min(max(4*cap(s.data), o+width, 64), s.total)
		if c < o+width { // spec changed shape under pooling; never under-size
			c = o + width
		}
		grown := make([]float64, o, c)
		copy(grown, s.data)
		s.data = grown
	}
	s.data = s.data[:o+width]
	s.off[slot] = int32(o)
	s.touched = append(s.touched, int32(slot))
	return s.data[o : o+width]
}

// row returns slot's stored logical row, or nil when untouched.
func (s *denseSlab) row(slot int) []float64 {
	o := s.off[slot]
	if o < 0 {
		return nil
	}
	return s.data[o : int(o)+int(s.n[slot])]
}

// slabsFor checks out splits prepared slabs for a dense job, reusing pooled
// storage shape-for-shape.
func (e *Engine) slabsFor(spec *DenseSpec, splits int) []*denseSlab {
	key := spec.key()
	e.mu.Lock()
	free := e.slabs[key]
	take := len(free)
	if take > splits {
		take = splits
	}
	slabs := make([]*denseSlab, splits)
	copy(slabs, free[len(free)-take:])
	if take > 0 {
		e.slabs[key] = free[:len(free)-take]
	}
	e.mu.Unlock()
	miss := splits - take
	if miss > 0 {
		// Cold checkout: carve the missing slabs and their offset tables from
		// two batch allocations instead of 3×miss small ones.
		block := make([]denseSlab, miss)
		tables := make([]int32, 2*miss*spec.Keys)
		for i, j := 0, 0; i < splits; i++ {
			if slabs[i] == nil {
				s := &block[j]
				s.off = tables[:spec.Keys:spec.Keys]
				s.n = tables[spec.Keys : 2*spec.Keys : 2*spec.Keys]
				tables = tables[2*spec.Keys:]
				slabs[i] = s
				j++
			}
		}
	}
	for i := range slabs {
		slabs[i].prepare(spec)
	}
	return slabs
}

// putSlabs returns a Run's slabs to the pool. The data is not cleared — the
// job's result map may still alias it — so the previous Run's views go stale
// only when the next checkout rewinds the slab, which is the documented
// lifetime contract.
func (e *Engine) putSlabs(spec *DenseSpec, slabs []*denseSlab) {
	key := spec.key()
	e.mu.Lock()
	if e.slabs == nil {
		e.slabs = make(map[slabKey][]*denseSlab)
	}
	e.slabs[key] = append(e.slabs[key], slabs...)
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
	if o := s.off[slot]; o >= 0 {
		if em.combine == nil {
			panic(fmt.Sprintf("mapred: job %q emitted key %d twice in one task without a Combine",
				em.name, k))
		}
		em.cd.merge(s.data[o:int(o)+int(s.n[slot])], v, em.combine)
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
	if o := s.off[slot]; o >= 0 {
		if int(s.n[slot]) != width {
			panic(fmt.Sprintf("mapred: job %q asked for a width-%d row for key %d holding %d",
				em.name, width, k, s.n[slot]))
		}
		return s.data[o : int(o)+width : int(o)+width]
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
	row := s.claim(slot, w)
	s.n[slot] = int32(w)
	return row[:w:w]
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
	for _, slot := range s.touched {
		kb := kbf(int(slot) + s.spec.MinKey)
		vb := vbf(cd.view(s.row(int(slot))))
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
	defer e.putSlabs(spec, slabs)

	// Worker-pool execution: a bounded set of workers pulls task indices from
	// an atomic counter instead of spawning one goroutine per task, and the
	// per-task emitters live in one batch allocation. Fault draws are keyed by
	// (phase, task, attempt), so dynamic task-to-worker assignment cannot
	// change any simulated-time charge.
	ems := make([]denseEmitter[V], splits)
	var wg sync.WaitGroup
	workers := e.Cluster.TotalCores()
	if splits < workers {
		workers = splits
	}
	var nextTask atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task := int(nextTask.Add(1)) - 1
				if task >= splits {
					return
				}
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
			}
		}()
	}
	wg.Wait()

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
		for _, slot := range slabs[t].touched {
			if !seen[slot] {
				seen[slot] = true
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
	// One gather buffer per reduce task, carved from a single arena.
	valsArena := make([]V, redTasks*len(slabs))
	var redWg sync.WaitGroup
	slots := reducers
	if tc := e.Cluster.TotalCores(); tc < slots {
		slots = tc
	}
	if redTasks < slots {
		slots = redTasks
	}
	var nextRed atomic.Int64
	for w := 0; w < slots; w++ {
		redWg.Add(1)
		go func() {
			defer redWg.Done()
			for {
				task := int(nextRed.Add(1)) - 1
				if task >= redTasks {
					return
				}
				lo := task * len(keys) / redTasks
				hi := (task + 1) * len(keys) / redTasks
				taskKeys := keys[lo:hi]
				taskRes := results[lo:hi]
				tf := &redFaults[task]
				// Per-key value gather, in map-task order (the same order the
				// generic shuffle builds its groups in), reused across keys.
				vals := valsArena[task*len(slabs) : task*len(slabs) : (task+1)*len(slabs)]
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
			}
		}()
	}
	redWg.Wait()
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
