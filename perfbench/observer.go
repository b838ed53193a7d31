package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"spca"
)

// spanRec is one span as the wall-clock observer saw it. Start and End are
// wall nanoseconds since the observer was created; AllocBytes and AllocObjs
// are the heap allocations made between SpanStart and SpanEnd. Phase and
// driver leaf spans are emitted back to back after their work, so their
// wall duration and allocations are ~0: they contribute counts (tasks,
// shuffle bytes), not time.
type spanRec struct {
	Trace        int    `json:"trace"`
	ID           int    `json:"id"`
	Parent       int    `json:"parent"`
	Name         string `json:"name"`
	Kind         string `json:"kind"`
	StartNs      int64  `json:"start_ns"`
	EndNs        int64  `json:"end_ns"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjs    uint64 `json:"alloc_objects"`
	Tasks        int64  `json:"tasks,omitempty"`
	ShuffleBytes int64  `json:"shuffle_bytes,omitempty"`

	startBytes, startObjs uint64
}

func (s *spanRec) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// wallObserver is the benchmark's spca.Observer: it stamps the wall clock
// and the runtime's cumulative heap-allocation counters at every SpanStart
// and SpanEnd and keeps the spans in memory until the run writes them out.
type wallObserver struct {
	mu      sync.Mutex
	origin  time.Time
	trace   int
	open    map[int]int // span ID -> index into spans, current trace only
	spans   []spanRec
	samples []metrics.Sample
}

func newWallObserver() *wallObserver {
	return &wallObserver{
		origin: time.Now(),
		open:   map[int]int{},
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		},
	}
}

// beginTrace starts a new per-fit trace ID; span IDs restart per fit.
func (o *wallObserver) beginTrace(id int) {
	o.mu.Lock()
	o.trace = id
	clear(o.open)
	o.mu.Unlock()
}

func (o *wallObserver) stamp() (ns int64, bytes, objs uint64) {
	metrics.Read(o.samples)
	return time.Since(o.origin).Nanoseconds(), o.samples[0].Value.Uint64(), o.samples[1].Value.Uint64()
}

func (o *wallObserver) SpanStart(s spca.Span) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ns, b, n := o.stamp()
	o.open[s.ID] = len(o.spans)
	o.spans = append(o.spans, spanRec{
		Trace: o.trace, ID: s.ID, Parent: s.Parent, Name: s.Name, Kind: string(s.Kind),
		StartNs: ns, startBytes: b, startObjs: n,
	})
}

func (o *wallObserver) SpanEnd(s spca.Span) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ns, b, n := o.stamp()
	i, ok := o.open[s.ID]
	if !ok {
		return
	}
	delete(o.open, s.ID)
	r := &o.spans[i]
	r.EndNs = ns
	r.AllocBytes = b - r.startBytes
	r.AllocObjs = n - r.startObjs
	r.Tasks = s.AttrInt("tasks")
	r.ShuffleBytes = s.AttrInt("shuffle_bytes")
}

func (o *wallObserver) Event(spca.TraceEvent)             {}
func (o *wallObserver) IterationDone(spca.TraceIteration) {}

// writeJSONL writes every recorded span, one JSON object per line.
func (o *wallObserver) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range o.spans {
		if err := enc.Encode(&o.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanNode is a span with its children, for self-time analysis.
type spanNode struct {
	*spanRec
	children []*spanNode
}

// selfNs is the span's duration minus the part of it its children cover.
func (n *spanNode) selfNs() int64 {
	iv := make([][2]int64, 0, len(n.children))
	for _, c := range n.children {
		iv = append(iv, [2]int64{max(c.StartNs, n.StartNs), min(c.EndNs, n.EndNs)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), n.StartNs
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			covered += v[1] - lo
			end = v[1]
		}
	}
	return (n.EndNs - n.StartNs) - covered
}

// selfAlloc is the span's heap bytes minus its children's.
func (n *spanNode) selfAlloc() uint64 {
	own := n.AllocBytes
	for _, c := range n.children {
		own -= min(own, c.AllocBytes)
	}
	return own
}

// leafSum adds up an attribute over the phase spans below n.
func (n *spanNode) leafSum(get func(*spanRec) int64) int64 {
	t := int64(0)
	for _, c := range n.children {
		if c.Kind == string(spca.KindPhase) {
			t += get(c.spanRec)
		}
		t += c.leafSum(get)
	}
	return t
}

// traces groups the recorded spans into per-fit trees, keyed by trace ID.
func (o *wallObserver) traces() map[int][]*spanNode {
	byTrace := map[int]map[int]*spanNode{}
	for i := range o.spans {
		s := &o.spans[i]
		if byTrace[s.Trace] == nil {
			byTrace[s.Trace] = map[int]*spanNode{}
		}
		byTrace[s.Trace][s.ID] = &spanNode{spanRec: s}
	}
	out := map[int][]*spanNode{}
	for id, nodes := range byTrace {
		ids := make([]int, 0, len(nodes))
		for sid := range nodes {
			ids = append(ids, sid)
		}
		sort.Ints(ids)
		for _, sid := range ids {
			n := nodes[sid]
			if p := nodes[n.Parent]; p != nil {
				p.children = append(p.children, n)
			}
			out[id] = append(out[id], n)
		}
	}
	return out
}
