// Command perfbench is the repository benchmark. It runs one named workload
// against the public spca API and the serving layer, checks every output it
// gets back, and prints its metrics by name with their units:
//
//	perfbench -workload em-sparse -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off; with -trace 1 it attaches a wall-clock Observer to the fits and times
// each layer's public functions directly, and reports the per-layer metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it carry the
// provenance and the detail behind each number. Any failed correctness check
// makes the command exit with status 1. WORKLOADS.md documents the workloads
// and what each metric means.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose fingerprints and simulated seconds are
// pinned in pins.json.
const defaultSeed = 1

//go:embed pins.json
var pinsJSON []byte

// pin is the pinned identity of one (workload, algorithm) fit at the
// default seed.
type pin struct {
	Fingerprint string  `json:"fingerprint"`
	SimSeconds  float64 `json:"sim_s"`
}

// options is one benchmark run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // temp files and the span dump go here
	tiny     bool   // shrink every input (self-tests)

	pins    map[string]pin // keyed "workload/algorithm"; checked at pinSeed
	pinSeed uint64

	// tamper, when set, is applied to every binary serve response payload
	// before the benchmark checks it. Self-tests use it to prove a wrong
	// response fails the run.
	tamper func(payload []byte)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run produces.
type result struct {
	attempted  int
	failed     int
	violations []string
	metrics    map[string]metric
	samples    map[string]int // metric name -> number of samples behind it
	detail     map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, samples: map[string]int{}, detail: map[string]any{}}
}

func (r *result) set(name, unit string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// check counts one attempted operation and records a violation when ok is
// false.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.violations) < 50 {
			r.violations = append(r.violations, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// fail records a failed operation that was already counted as attempted.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.violations) < 50 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// failN records n failed operations, already counted as attempted, under
// one violation message. It does nothing for n <= 0.
func (r *result) failN(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.fail(format, args...)
	r.failed += n - 1
}

func (r *result) correct() bool { return r.failed == 0 }

func run(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if o.tiny {
		w = w.tinyVersion()
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{o: o, w: w, res: newResult()}
	var err error
	switch {
	case o.trace:
		err = b.runTraced()
	case w.serve:
		err = b.runServe()
	default:
		err = b.runFits()
	}
	if err != nil {
		return nil, err
	}
	return b.res, nil
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func provenance(o options, w workload, r *result, stealPct float64) map[string]any {
	return map[string]any{
		"steal_pct":  stealPct,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"input":      w.inputSpec(o.seed),
		"samples":    r.samples,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "seconds of measurement")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temporary files and the span dump")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if err := json.Unmarshal(pinsJSON, &o.pins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pins.json:", err)
		os.Exit(2)
	}
	o.pinSeed = defaultSeed

	steal0, total0 := cpuTicks()
	res, err := run(o)
	steal1, total1 := cpuTicks()
	stealPct := 0.0
	if total1 > total0 {
		stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w := workloads[o.workload]
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	emit(map[string]any{"provenance": provenance(o, w, res, stealPct)})
	emit(map[string]any{"detail": res.detail})
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", v)
	}
	emit(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, res.metrics})
	if !res.correct() {
		os.Exit(1)
	}
}
