// Command benchjson converts `go test -bench -benchmem` output on stdin into
// a machine-readable JSON document, so benchmark baselines can be committed
// (BENCH_*.json) and diffed across changes:
//
//	go test ./... -run '^$' -bench . -benchmem | go run ./cmd/benchjson -out BENCH_3.json
//
// Standard per-op metrics (ns/op, B/op, allocs/op) get dedicated fields; any
// extra `value unit` pairs a benchmark reports land in the "extra" map.
// Every entry records the GOMAXPROCS it ran at, parsed from the -N suffix
// go test appends to the name (no suffix means 1). Repeated result lines of
// one benchmark (from -count N) fold into a single entry holding the median
// of each metric and the number of samples behind it.
//
// With -compare, the tool instead diffs two previously written files:
//
//	go run ./cmd/benchjson -compare BENCH_7.json BENCH_8.json
//
// and exits 1 if any common benchmark got >10% slower (tunable via -ns-tol)
// or allocates more per op (any increase). Files recorded at different
// GOMAXPROCS are refused with exit status 2.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	GOMAXPROCS  int                `json:"gomaxprocs,omitempty"`
	Samples     int                `json:"samples,omitempty"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Document is the emitted JSON root.
type Document struct {
	GeneratedAt string      `json:"generated_at"`
	GoOS        string      `json:"goos,omitempty"`
	GoArch      string      `json:"goarch,omitempty"`
	CPU         string      `json:"cpu,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two baseline files (old.json new.json); exit 1 on regression")
	nsTol := flag.Float64("ns-tol", 0.10, "fractional ns/op growth tolerated by -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs exactly two arguments: old.json new.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *nsTol, os.Stdout))
	}

	doc := Document{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	pkg := ""
	var samples [][]Benchmark // result lines per benchmark, first-seen order
	index := map[string]int{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				b.Pkg = pkg
				key := b.Pkg + " " + b.Name
				i, seen := index[key]
				if !seen {
					i = len(samples)
					index[key] = i
					samples = append(samples, nil)
				}
				samples[i] = append(samples[i], b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("read stdin: %v", err)
	}
	if len(samples) == 0 {
		fatalf("no benchmark result lines found on stdin (did the bench run fail?)")
	}
	for _, runs := range samples {
		doc.Benchmarks = append(doc.Benchmarks, fold(runs))
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("encode: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// parseBenchLine parses a result line of the form
//
//	BenchmarkName-8  	 1000	 1234 ns/op	 56 B/op	 7 allocs/op	 3.2 extra/metric
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, GOMAXPROCS: 1, Samples: 1}
	if m := procSuffix.FindString(b.Name); m != "" {
		if p, err := strconv.Atoi(m[1:]); err == nil && p > 0 {
			b.GOMAXPROCS = p
		}
	}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		v := val
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			sawNs = true
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPerOp = &v
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[fields[i+1]] = v
		}
	}
	return b, sawNs
}

// fold merges the result lines of one benchmark into a single entry: the
// median of every metric, the total iterations, and the sample count.
func fold(runs []Benchmark) Benchmark {
	out := runs[0]
	if len(runs) == 1 {
		return out
	}
	out.Samples = len(runs)
	out.Iterations = 0
	ns := make([]float64, len(runs))
	var bytes, allocs []float64
	extra := map[string][]float64{}
	for i, r := range runs {
		out.Iterations += r.Iterations
		ns[i] = r.NsPerOp
		if r.BytesPerOp != nil {
			bytes = append(bytes, *r.BytesPerOp)
		}
		if r.AllocsPerOp != nil {
			allocs = append(allocs, *r.AllocsPerOp)
		}
		for k, v := range r.Extra {
			extra[k] = append(extra[k], v)
		}
	}
	out.NsPerOp = median(ns)
	if len(bytes) > 0 {
		v := median(bytes)
		out.BytesPerOp = &v
	}
	if len(allocs) > 0 {
		v := median(allocs)
		out.AllocsPerOp = &v
	}
	if len(extra) > 0 {
		out.Extra = make(map[string]float64, len(extra))
		for k, vs := range extra {
			out.Extra[k] = median(vs)
		}
	}
	return out
}

func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
