package main

import (
	"fmt"
	"path/filepath"
	"time"

	"spca"
)

// byAlg collects samples per algorithm. A workload alternates algorithms
// whose costs differ, so a median over all samples would jump between
// their clusters; value reports the mean over algorithms of each one's
// median instead.
type byAlg map[spca.Algorithm][]float64

func (m byAlg) add(alg spca.Algorithm, v float64) { m[alg] = append(m[alg], v) }

// value returns the mean of the per-algorithm medians and the sample
// count; 0 when no algorithm produced a sample (the rung never ran).
func (m byAlg) value() (float64, int) {
	if len(m) == 0 {
		return 0, 0
	}
	var meds []float64
	n := 0
	for _, xs := range m {
		meds = append(meds, median(xs))
		n += len(xs)
	}
	return mean(meds), n
}

func (r *result) setByAlg(name, unit string, m byAlg) {
	v, n := m.value()
	r.set(name, unit, v, n)
}

// runTraced is the traced run of any workload. After one set-up it
// alternates untraced and traced fits of each of the workload's algorithms
// (the order flips every round, so neither side always runs second), then
// runs the direct-call ladder. Traced fits must reproduce the untraced
// fingerprints; their spans give the per-layer numbers, and the traced over
// untraced fit time gives the tracing overhead.
func (b *bench) runTraced() error {
	if _, err := b.setup(); err != nil {
		return err
	}
	obs := newWallObserver()
	untraced, traced, objs := byAlg{}, byAlg{}, byAlg{}
	fits := map[int]fitOut{} // trace ID -> the traced fit
	tracedFP := map[string]string{}
	var pauseNs, wallNs float64

	deadline := time.Now().Add(time.Duration(b.o.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < 2*len(b.w.algs); i++ {
		alg := b.w.algs[i%len(b.w.algs)]
		tracedFirst := (i/len(b.w.algs))%2 == 1
		for k := 0; k < 2; k++ {
			if (k == 0) == tracedFirst {
				obs.beginTrace(i)
				f, _ := b.fit(alg, obs)
				traced.add(alg, float64(f.wall)/1e6)
				fits[i] = f
				tracedFP[string(alg)] = fmt.Sprintf("%016x", f.fingerprint)
			} else {
				f, _ := b.fit(alg, nil)
				untraced.add(alg, float64(f.wall)/1e6)
				objs.add(alg, float64(f.allocObjs))
				pauseNs += float64(f.pauseNs)
				wallNs += float64(f.wall)
			}
		}
	}

	b.spanMetrics(obs, fits)
	var over []float64
	for _, alg := range b.w.algs {
		over = append(over, 100*(median(traced[alg])/median(untraced[alg])-1))
	}
	_, n := untraced.value()
	b.res.set("trace.overhead_pct", "%", mean(over), n)
	b.res.setByAlg("spca.allocs_per_fit", "count", objs)
	b.res.set("runtime.gc_pause_ms_per_s", "ms/s", pauseNs/1e6/(wallNs/1e9), n)

	var sim, ops, mat, failed float64
	untracedFP := map[string]string{}
	for _, alg := range b.w.algs {
		m := b.ref[alg].res.Metrics
		sim += m.SimSeconds
		ops += float64(m.ComputeOps)
		mat += float64(m.MaterializedBytes) / (1 << 20)
		failed += float64(m.FailedAttempts)
		untracedFP[string(alg)] = fmt.Sprintf("%016x", b.ref[alg].fingerprint)
	}
	na := len(b.w.algs)
	b.res.set("cluster.sim_s", "s", sim, na)
	b.res.set("cluster.compute_ops", "count", ops, na)
	b.res.set("cluster.materialized_mb", "MB", mat, na)
	b.res.set("cluster.failed_attempts", "count", failed, na)
	b.res.detail["fingerprints"] = map[string]any{"untraced": untracedFP, "traced": tracedFP}

	b.kernelLadder()
	if err := b.serveLadder(&b.ref[b.w.algs[0]].res.Model); err != nil {
		return err
	}
	path := filepath.Join(b.o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.o.seed))
	if err := obs.writeJSONL(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b.res.detail["spans"] = map[string]any{"file": path, "count": len(obs.spans)}
	return nil
}

// stageKinds names the two stage rungs: a MapReduce job and an RDD action.
var stageKinds = []struct {
	kind                 spca.SpanKind
	prefix, count, stage string
}{
	{spca.KindJob, "mapred", "jobs", "job"},
	{spca.KindAction, "rdd", "actions", "action"},
}

// spanMetrics derives the span-based per-layer metrics. A round is one EM
// iteration (ppca) or one sketch round (rsvd); mapred jobs and rdd actions
// are the innermost wall-clock rung, and their tasks and shuffle bytes come
// from the phase spans beneath them. Per-fit counts are taken over the fits
// that have the rung at all.
func (b *bench) spanMetrics(obs *wallObserver, fits map[int]fitOut) {
	fitSelf, roundMs, roundSelf, roundAlloc := byAlg{}, byAlg{}, byAlg{}, byAlg{}
	type stage struct{ count, ms, alloc, tasks, shuffleMB byAlg }
	stages := map[spca.SpanKind]*stage{}
	for _, k := range stageKinds {
		stages[k.kind] = &stage{byAlg{}, byAlg{}, byAlg{}, byAlg{}, byAlg{}}
	}
	for id, nodes := range obs.traces() {
		f := fits[id]
		rootMs := 0.0
		type perFit struct{ count, tasks, shuffleMB float64 }
		totals := map[spca.SpanKind]*perFit{}
		for _, n := range nodes {
			kind := spca.SpanKind(n.Kind)
			switch kind {
			case spca.KindFit:
				if n.Parent == 0 {
					rootMs += n.ms()
				}
			case spca.KindIteration:
				roundMs.add(f.alg, n.ms())
				roundSelf.add(f.alg, float64(n.selfNs())/1e6)
				roundAlloc.add(f.alg, float64(n.selfAlloc())/(1<<20))
			case spca.KindJob, spca.KindAction:
				s := stages[kind]
				s.ms.add(f.alg, n.ms())
				s.alloc.add(f.alg, float64(n.AllocBytes)/(1<<20))
				t := totals[kind]
				if t == nil {
					t = &perFit{}
					totals[kind] = t
				}
				t.count++
				t.tasks += float64(n.leafSum(func(r *spanRec) int64 { return r.Tasks }))
				t.shuffleMB += float64(n.leafSum(func(r *spanRec) int64 { return r.ShuffleBytes })) / (1 << 20)
			}
		}
		for kind, t := range totals {
			s := stages[kind]
			s.count.add(f.alg, t.count)
			s.tasks.add(f.alg, t.tasks)
			s.shuffleMB.add(f.alg, t.shuffleMB)
		}
		fitSelf.add(f.alg, float64(f.wall)/1e6-rootMs)
	}
	b.res.setByAlg("spca.fit_self_ms", "ms", fitSelf)
	b.res.setByAlg("round.ms", "ms", roundMs)
	b.res.setByAlg("round.self_ms", "ms", roundSelf)
	b.res.setByAlg("round.self_alloc_mb", "MB", roundAlloc)
	for _, k := range stageKinds {
		s := stages[k.kind]
		b.res.setByAlg(k.prefix+"."+k.count, "count", s.count)
		b.res.setByAlg(k.prefix+"."+k.stage+"_ms", "ms", s.ms)
		b.res.setByAlg(k.prefix+"."+k.stage+"_alloc_mb", "MB", s.alloc)
		b.res.setByAlg(k.prefix+".shuffle_mb", "MB", s.shuffleMB)
		if k.kind == spca.KindJob {
			b.res.setByAlg("mapred.tasks", "count", s.tasks)
		}
	}
}
