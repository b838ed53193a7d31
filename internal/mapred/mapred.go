// Package mapred implements a miniature MapReduce engine in the spirit of
// Hadoop, sufficient to express the paper's sPCA-MapReduce and Mahout-PCA
// jobs: user-defined mappers with setup/cleanup (enabling the paper's
// "stateful combiner" technique), optional associative combiners, reducers,
// composite keys, and exact accounting of map-output/shuffle bytes through
// the simulated cluster.
//
// Execution is real (mappers and reducers run concurrently on a worker pool)
// while time is simulated: the engine charges each phase's compute, shuffle
// and disk traffic to the cluster cost model. Like Hadoop, map output is
// written to disk before being shuffled, so every shuffle byte is also a
// disk byte — this is what gives sPCA its "low disk footprint" advantage.
//
// Fault tolerance follows Hadoop's model, driven by a deterministic
// cluster.FaultPlan: map and reduce attempts that fail are retried up to
// MaxAttempts (then the job fails with ErrTaskFailed), completed map outputs
// on a node that dies before the shuffle are re-executed, and straggling
// attempts either delay their phase or are raced by speculative backup
// copies. Every failure decision is a pure function of the plan's seed and
// the (job, phase, task, attempt) coordinates, so a given seed fails the
// identical attempt set on every run — and because mappers and reducers are
// deterministic, recovery reproduces bit-identical job output.
package mapred

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"spca/internal/cluster"
	"spca/internal/trace"
)

// Emitter receives key/value pairs from mappers, and lets tasks charge
// arithmetic work to the simulated cluster.
type Emitter[K comparable, V any] interface {
	Emit(key K, value V)
	// AddOps charges n arithmetic operations to the current phase.
	AddOps(n int64)
}

// RowEmitter is the accumulate-in-place side of the engine's emitters, for
// int-keyed jobs with []float64 values and a Combine (the stateful in-mapper
// combiner of §4.1 applied eagerly). Both of the engine's emitters implement
// it; a mapper reaches it with out.(mapred.RowEmitter).
type RowEmitter interface {
	Emitter[int, []float64]
	// Row returns key k's width-long value row for this attempt. The first
	// touch claims the row zeroed and counts it as the key's one emitted
	// value; later touches return the same row, which the mapper keeps
	// accumulating into. A row is the task's only copy of its partial: on the
	// flat-slab path it lives in the shuffle slab, on the generic path in the
	// emitter's value map. The slice is valid only until the next call that
	// claims a new key (Row or Emit), which may move the storage, so use it
	// at once. Emit on a key already claimed by Row merges through Combine.
	Row(k, width int) []float64
}

// Mapper processes input records. NewMapper is called once per map task, so
// implementations can keep per-task state (the stateful in-mapper combiner of
// §4.1) and flush it in Cleanup.
type Mapper[I any, K comparable, V any] interface {
	Map(rec I, out Emitter[K, V])
	Cleanup(out Emitter[K, V])
}

// MapperFunc adapts a plain function to a stateless Mapper.
type MapperFunc[I any, K comparable, V any] func(rec I, out Emitter[K, V])

// Map implements Mapper.
func (f MapperFunc[I, K, V]) Map(rec I, out Emitter[K, V]) { f(rec, out) }

// Cleanup implements Mapper (no-op).
func (f MapperFunc[I, K, V]) Cleanup(out Emitter[K, V]) {}

// Job describes one MapReduce job. The byte-size callbacks drive the
// intermediate-data accounting; they must reflect the serialized size of the
// corresponding records.
type Job[I any, K comparable, V any, R any] struct {
	Name      string
	NewMapper func(task int) Mapper[I, K, V]
	// Combine optionally merges two values for the same key before the
	// shuffle (a Hadoop combiner). It must be associative and commutative.
	Combine func(a, b V) V
	// Reduce folds all values for a key into the job output for that key.
	Reduce func(key K, values []V, out Ops) R

	InputBytes  func(I) int64
	KeyBytes    func(K) int64
	ValueBytes  func(V) int64
	ResultBytes func(R) int64

	// Dense opts the job into the flat-slab shuffle fast path (see
	// DenseSpec). It only takes effect for jobs keyed by int whose value and
	// result types are []float64 (or float64); any other instantiation runs
	// the generic path regardless.
	Dense *DenseSpec
}

// Ops lets reducers charge arithmetic work.
type Ops interface{ AddOps(n int64) }

// ErrTaskFailed is returned by Run when some task fails all of its
// MaxAttempts attempts — the terminal job failure Hadoop reports after
// mapred.map.max.attempts is exhausted.
var ErrTaskFailed = errors.New("mapred: task failed after max attempts")

// ErrCorruptPayload re-exports the cluster sentinel for checksum failures on
// this engine's shuffle and reduce-output payloads.
var ErrCorruptPayload = cluster.ErrCorruptPayload

// Engine runs jobs against a simulated cluster.
type Engine struct {
	Cluster *cluster.Cluster
	// Splits is the number of map tasks per job (default: 2x total cores).
	Splits int
	// Reducers is the number of reduce tasks per job (default: total cores).
	Reducers int
	// Faults injects deterministic failures (task attempts, node losses,
	// stragglers) into every job. Nil runs fault-free.
	Faults *cluster.FaultPlan
	// FailureRate is the legacy chaos knob: when set (and Faults is nil) it
	// builds an implicit FaultPlan injecting task-attempt failures with this
	// probability, seeded by SetFailureSeed.
	FailureRate float64
	// MaxAttempts bounds retries per task (default 4, like Hadoop). A
	// FaultPlan's own MaxAttempts takes precedence when set.
	MaxAttempts int
	// DisableDense forces jobs carrying a DenseSpec through the generic
	// map-based shuffle — the A/B switch of the differential tests.
	DisableDense bool

	mu       sync.Mutex
	failSeed uint64
	jobSeq   int64
	slabs    map[slabKey][]*denseSlab
}

// NewEngine returns an engine with Hadoop-like defaults on cl.
func NewEngine(cl *cluster.Cluster) *Engine {
	return &Engine{
		Cluster:     cl,
		Splits:      2 * cl.TotalCores(),
		Reducers:    cl.TotalCores(),
		MaxAttempts: 4,
		failSeed:    0x4D52, // "MR"
	}
}

// SetFailureSeed reseeds the legacy FailureRate fault injection. Failure
// decisions are derived per (job, phase, task, attempt) from this seed — not
// drawn from a shared RNG stream — so the same seed fails the identical
// attempt set on every run, independent of goroutine scheduling.
func (e *Engine) SetFailureSeed(seed uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failSeed = seed
}

// NumSplits reports how many map tasks Run will use for n input records: the
// configured Splits, clamped to n (at least 1). Callers sizing per-task
// scratch (mapper state reused across jobs) rely on this matching Run's own
// split computation, so both share this function.
func (e *Engine) NumSplits(n int) int {
	splits := e.Splits
	if splits <= 0 {
		splits = 2 * e.Cluster.TotalCores()
	}
	if splits > n && n > 0 {
		splits = n
	}
	if splits == 0 {
		splits = 1
	}
	return splits
}

// JobSeq reports the engine's job sequence counter, which salts per-job
// fault decisions. Checkpoints capture it so a resumed driver draws the
// exact same faults an uninterrupted run would for the remaining jobs.
func (e *Engine) JobSeq() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobSeq
}

// SetJobSeq restores the job sequence counter from a checkpoint.
func (e *Engine) SetJobSeq(seq int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobSeq = seq
}

// plan resolves the effective fault plan for the next job (nil = fault-free)
// and assigns the job its sequence number, which salts the per-job fault
// decisions so repeated jobs with the same name (one per EM iteration) draw
// distinct faults.
func (e *Engine) plan() (*cluster.FaultPlan, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	seq := e.jobSeq
	e.jobSeq++
	if e.Faults != nil {
		if !e.Faults.Enabled() {
			return nil, seq
		}
		return e.Faults, seq
	}
	if e.FailureRate > 0 {
		return &cluster.FaultPlan{Seed: e.failSeed, TaskFailureRate: e.FailureRate}, seq
	}
	return nil, seq
}

type emitter[K comparable, V any] struct {
	pairs map[K][]V      // non-combiner path: values per key in emission order
	vals  map[K]V        // combiner path: one merged value per key, no slice boxing
	merge func(a, b V) V // nil: append values
	ops   int64
}

func newEmitter[K comparable, V any](merge func(a, b V) V) *emitter[K, V] {
	em := &emitter[K, V]{merge: merge}
	if merge != nil {
		em.vals = make(map[K]V)
	} else {
		em.pairs = make(map[K][]V)
	}
	return em
}

func (em *emitter[K, V]) Emit(k K, v V) {
	if em.merge != nil {
		// Combiner path: keep a single merged value per key, rather than
		// allocating a one-element slice per key just to box it.
		if cur, ok := em.vals[k]; ok {
			em.vals[k] = em.merge(cur, v)
			return
		}
		em.vals[k] = v
		return
	}
	em.pairs[k] = append(em.pairs[k], v)
}

// Row implements RowEmitter on the generic path: the row is held in the
// combiner's value map, exactly where an Emit of it would land.
func (em *emitter[K, V]) Row(k, width int) []float64 {
	vals, ok := any(em.vals).(map[int][]float64)
	if !ok || em.merge == nil {
		panic("mapred: Row needs an int-keyed []float64 job with a Combine")
	}
	v, ok := vals[k]
	if !ok {
		v = make([]float64, width)
		vals[k] = v
	} else if len(v) != width {
		panic(fmt.Sprintf("mapred: Row(%d) asked for width %d; the key holds %d", k, width, len(v)))
	}
	return v
}

// reset clears a failed attempt's output so the retry can reuse the emitter's
// maps instead of reallocating them.
func (em *emitter[K, V]) reset() {
	clear(em.pairs)
	clear(em.vals)
	em.ops = 0
}

func (em *emitter[K, V]) AddOps(n int64) { em.ops += n }

type opsCounter struct{ n int64 }

func (o *opsCounter) AddOps(n int64) { o.n += n }

// taskFaults is the per-task fault accounting of one phase.
type taskFaults struct {
	failed       int64 // failed attempts (including node-loss re-runs)
	wasted       int64 // ops spent by failed attempts and backup copies
	spec         int64 // speculative backup copies launched
	stragglerOps int64 // extra serial op-time of an unmitigated straggler
	exhausted    bool  // every attempt failed: terminal task failure
}

// chargeStraggler applies the plan's straggler decision to a committing
// attempt that cost ops: with speculative execution the engine launches a
// backup copy (duplicated work, no tail latency); without it the slow
// attempt's extra serial time delays the phase.
func (tf *taskFaults) chargeStraggler(plan *cluster.FaultPlan, phase string, task, att int, ops int64) {
	if !plan.Straggles(phase, task, att) {
		return
	}
	if plan.SpeculativeExecution {
		tf.spec++
		tf.wasted += ops
		return
	}
	tf.stragglerOps += int64(float64(ops) * (plan.SlowFactor() - 1))
}

// sum folds per-task fault accounting into phase stats.
func sumFaults(stats *cluster.PhaseStats, faults []taskFaults) {
	for i := range faults {
		stats.FailedAttempts += faults[i].failed
		stats.RecomputedOps += faults[i].wasted
		stats.SpeculativeTasks += faults[i].spec
		stats.StragglerOps += faults[i].stragglerOps
	}
}

// sizeFns resolves the job's optional key/value size callbacks once per Run,
// so the per-entry accounting loops carry no nil checks. The 8-byte fallbacks
// are capture-free closures, so resolving them allocates nothing.
func (job *Job[I, K, V, R]) sizeFns() (kb func(K) int64, vb func(V) int64) {
	kb, vb = job.KeyBytes, job.ValueBytes
	if kb == nil {
		kb = func(K) int64 { return 8 }
	}
	if vb == nil {
		vb = func(V) int64 { return 8 }
	}
	return kb, vb
}

// resultFn resolves ResultBytes the same way sizeFns resolves the others.
func (job *Job[I, K, V, R]) resultFn() func(R) int64 {
	if job.ResultBytes == nil {
		return func(R) int64 { return 8 }
	}
	return job.ResultBytes
}

// payloadSize walks one task's map output, returning its total modeled wire
// size and its order-independent checksum. The producing attempt stamps the
// digest at commit time; the shuffle recomputes it at consume time and the
// two must match — the simulated equivalent of checksumming a payload before
// and after it crosses the wire.
func payloadSize[K comparable, V any](kbf func(K) int64, vbf func(V) int64, pairs map[K][]V, vals map[K]V) (int64, uint64) {
	var total int64
	var dig cluster.PayloadDigest
	for k, vs := range pairs {
		kb := kbf(k)
		for _, v := range vs {
			vb := vbf(v)
			total += kb + vb
			dig.Add(kb, vb)
		}
	}
	for k, v := range vals {
		kb, vb := kbf(k), vbf(v)
		total += kb + vb
		dig.Add(kb, vb)
	}
	return total, dig.Sum()
}

// chargeCorruptFetches applies the plan's payload-corruption decisions to one
// committed task payload: each corrupted fetch re-executes the producing
// attempt (ops re-charged) and re-ships the payload (bytes re-charged),
// bounded by maxAtt re-fetches. It returns false when every re-fetch came
// back corrupted — the terminal, unrecoverable case.
func chargeCorruptFetches(stats *cluster.PhaseStats, plan *cluster.FaultPlan, phase string, task, att, maxAtt int, ops, bytes int64) bool {
	if plan == nil || plan.CorruptionRate <= 0 {
		return true
	}
	for re := 0; re < maxAtt; re++ {
		if !plan.PayloadCorrupt(phase, task, att+re) {
			return true
		}
		stats.CorruptPayloads++
		stats.ReverifyBytes += bytes
		stats.RecomputedOps += ops
	}
	return false
}

// Run executes the job over the input records and returns the reduce output
// per key. It is the moral equivalent of submitting a job to a Hadoop
// cluster and reading its part files back. Under an active FaultPlan, failed
// map and reduce attempts are retried up to MaxAttempts — re-executed work is
// charged to the recovery metrics — and Run returns ErrTaskFailed if any
// task exhausts its attempts.
func Run[I any, K comparable, V any, R any](e *Engine, job Job[I, K, V, R], input []I) (map[K]R, error) {
	if job.NewMapper == nil || job.Reduce == nil {
		return nil, fmt.Errorf("mapred: job %q missing mapper or reducer", job.Name)
	}
	// Flat-slab fast path: a whole-job type assertion dispatches the hot
	// (int, []float64) and (int, float64) shapes without any per-emit boxing;
	// every other instantiation falls through to the generic shuffle below.
	if job.Dense != nil && !e.DisableDense {
		if dj, ok := any(&job).(*Job[I, int, []float64, []float64]); ok {
			out, err := runDense(e, dj, input, vecCodec)
			res, _ := any(out).(map[K]R)
			return res, err
		}
		if dj, ok := any(&job).(*Job[I, int, float64, float64]); ok {
			out, err := runDense(e, dj, input, scalarCodec)
			res, _ := any(out).(map[K]R)
			return res, err
		}
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

	// Job span: wraps the map and reduce phase charges so they nest under
	// one node per submitted job in the trace.
	tr := e.Cluster.Tracer()
	if tr != nil {
		tr.Begin(job.Name, trace.KindJob,
			trace.I("seq", int64(seq)), trace.I("splits", int64(splits)))
	}

	// ---- Map phase ----
	type taskOut struct {
		pairs  map[K][]V
		vals   map[K]V
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

	var wg sync.WaitGroup
	sem := make(chan struct{}, e.Cluster.TotalCores())
	for t := 0; t < splits; t++ {
		lo := t * len(input) / splits
		hi := (t + 1) * len(input) / splits
		wg.Add(1)
		go func(task, lo, hi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tf := &mapFaults[task]
			em := newEmitter[K, V](job.Combine)
			for att := 1; att <= maxAtt; att++ {
				if att > 1 {
					em.reset() // retries reuse the failed attempt's maps
				}
				m := job.NewMapper(task)
				for i := lo; i < hi; i++ {
					m.Map(input[i], em)
				}
				m.Cleanup(em)
				if plan.AttemptFails(mapPhase, task, att) {
					// Attempt lost: the cluster really spent the cycles, but
					// the output is discarded and the task retries.
					tf.failed++
					tf.wasted += em.ops
					continue
				}
				outs[task].pairs = em.pairs
				outs[task].vals = em.vals
				outs[task].ops = em.ops
				outs[task].att = att
				outs[task].bytes, outs[task].digest = payloadSize(kbf, vbf, em.pairs, em.vals)
				tf.chargeStraggler(plan, mapPhase, task, att, em.ops)
				return
			}
			tf.exhausted = true
		}(t, lo, hi)
	}
	wg.Wait()

	// Hadoop node-loss semantics: map output lives on the mapper's local
	// disk until the shuffle reads it, so losing a node loses the completed
	// map outputs it hosted and those tasks must be re-executed. Mappers are
	// deterministic, so the re-run reproduces the same output; the engine
	// charges the re-execution without repeating it.
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
			// Charge the work the failed job still performed, then surface
			// the terminal failure (no shuffle happens for an aborted job).
			mapStats.ComputeOps = mapOps
			e.Cluster.RunPhase(mapStats)
			if tr != nil {
				tr.End(trace.I("failed", 1))
			}
			return nil, fmt.Errorf("%w: job %q map task %d (%d attempts)",
				ErrTaskFailed, job.Name, t, maxAtt)
		}
	}

	// ---- Shuffle: verify each task's payload checksum, group map output by
	// key, counting bytes ----
	var shuffleBytes int64
	grouped := make(map[K][]V)
	for t := range outs {
		o := &outs[t]
		// Consume-side verification: recompute the digest the committing
		// attempt stamped. A mismatch means the output was damaged between
		// commit and shuffle — a real integrity violation, not an injected
		// one — and fails the job with the typed sentinel.
		tb, sum := payloadSize(kbf, vbf, o.pairs, o.vals)
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
		// Injected corruption: the plan decides whether this payload arrives
		// corrupted; each detected corruption re-executes the mapper and
		// re-ships the payload, up to maxAtt re-fetches.
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
		for k, vs := range o.pairs {
			grouped[k] = append(grouped[k], vs...)
		}
		for k, v := range o.vals {
			grouped[k] = append(grouped[k], v)
		}
	}
	mapStats.ComputeOps = mapOps
	mapStats.ShuffleBytes = shuffleBytes
	// Hadoop spills map output to local disk and reads the input split from
	// HDFS.
	mapStats.DiskBytes = inputBytes + shuffleBytes
	e.Cluster.RunPhase(mapStats)

	// Cooperative cancellation boundary: the map phase (and its shuffle) is
	// fully charged, so metrics and trace stay consistent; the reduce phase
	// never starts and the job unwinds with the typed interrupt sentinel.
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
	keys := make([]K, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	// Stable key order so runs are deterministic regardless of map iteration.
	sort.Slice(keys, func(i, j int) bool {
		return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
	})

	// Keys are partitioned into the configured number of reduce tasks (like
	// Hadoop's partitioner), so Engine.Reducers governs scheduling, not just
	// the charged task overhead. Task concurrency is bounded by the reduce
	// slots and the cluster's cores, whichever is smaller.
	redTasks := reducers
	if len(keys) < redTasks {
		redTasks = len(keys)
	}
	if redTasks == 0 {
		redTasks = 1
	}
	redPhase := fmt.Sprintf("%s#%d/reduce", job.Name, seq)
	result := make(map[K]R, len(keys))
	var resMu sync.Mutex
	var redOps, outBytes int64
	// Per-task commit records: the committing attempt, its modeled output
	// size and ops (for corrupt-fetch re-execution charges), and the checksum
	// it stamped over its part file.
	type redOut struct {
		att    int
		ops    int64
		bytes  int64
		digest uint64
	}
	redOuts := make([]redOut, redTasks)
	redFaults := make([]taskFaults, redTasks)
	var redWg sync.WaitGroup
	slots := reducers
	if tc := e.Cluster.TotalCores(); tc < slots {
		slots = tc
	}
	redSem := make(chan struct{}, slots)
	for t := 0; t < redTasks; t++ {
		lo := t * len(keys) / redTasks
		hi := (t + 1) * len(keys) / redTasks
		redWg.Add(1)
		go func(task int, taskKeys []K) {
			defer redWg.Done()
			redSem <- struct{}{}
			defer func() { <-redSem }()
			tf := &redFaults[task]
			for att := 1; att <= maxAtt; att++ {
				oc := &opsCounter{}
				var taskBytes int64
				var dig cluster.PayloadDigest
				partial := make(map[K]R, len(taskKeys))
				for _, k := range taskKeys {
					r := job.Reduce(k, grouped[k], oc)
					kb, rb := kbf(k), rbf(r)
					taskBytes += rb
					dig.Add(kb, rb)
					partial[k] = r
				}
				if plan.AttemptFails(redPhase, task, att) {
					tf.failed++
					tf.wasted += oc.n
					continue
				}
				tf.chargeStraggler(plan, redPhase, task, att, oc.n)
				resMu.Lock()
				for k, r := range partial {
					result[k] = r
				}
				redOps += oc.n
				outBytes += taskBytes
				resMu.Unlock()
				redOuts[task] = redOut{att: att, ops: oc.n, bytes: taskBytes, digest: dig.Sum()}
				return
			}
			tf.exhausted = true
		}(t, keys[lo:hi])
	}
	redWg.Wait()
	redStats := cluster.PhaseStats{
		Name:       job.Name + "/reduce",
		ComputeOps: redOps,
		DiskBytes:  outBytes, // reducers write results to HDFS
		Tasks:      int64(redTasks),
		// Job output is inter-job intermediate data: the next job (or the
		// driver) reads it back. This is the paper's intermediate-data
		// metric.
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
	// The driver consumes the reduce part files: re-verify each task's
	// checksum against the committed results, then apply the plan's
	// corruption decisions (a corrupted part file re-runs its reduce task and
	// is re-read).
	for t := 0; t < redTasks; t++ {
		lo := t * len(keys) / redTasks
		hi := (t + 1) * len(keys) / redTasks
		var tb int64
		var dig cluster.PayloadDigest
		for _, k := range keys[lo:hi] {
			kb, rb := kbf(k), rbf(result[k])
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
	return result, nil
}
