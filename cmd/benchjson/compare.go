package main

// Compare mode: `benchjson -compare old.json new.json` diffs two committed
// benchmark baselines and exits non-zero on regressions, so `make check` can
// gate on the benchmark history without re-running the benchmarks.
//
// Rules: a common benchmark regresses if its ns/op grew by more than -ns-tol
// (default 10%, wall-clock is noisy) or its allocs/op increased at all
// (allocation counts are deterministic, so any increase is a real change).
// Benchmarks present in only one file are reported but never fail the gate.
// A common benchmark recorded at a different GOMAXPROCS on each side makes
// the whole comparison invalid: the kernels' per-op allocations and times
// follow the worker count, so the gap would be host shape, not a change.
// Entries from files written before GOMAXPROCS was recorded are compared as
// before.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

// procSuffix strips the -GOMAXPROCS suffix go test appends to benchmark
// names, so baselines recorded on machines with different core counts still
// line up.
var procSuffix = regexp.MustCompile(`-\d+$`)

func benchKey(b Benchmark) string {
	return b.Pkg + " " + procSuffix.ReplaceAllString(b.Name, "")
}

func loadDoc(path string) (Document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var d Document
	if err := json.Unmarshal(raw, &d); err != nil {
		return Document{}, fmt.Errorf("%s: %v", path, err)
	}
	if len(d.Benchmarks) == 0 {
		return Document{}, fmt.Errorf("%s: no benchmarks", path)
	}
	return d, nil
}

// checkProcs returns an error naming the first benchmark common to both
// documents that was recorded at a different GOMAXPROCS on each side.
func checkProcs(oldDoc, newDoc Document) error {
	oldBy := make(map[string]Benchmark, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		oldBy[benchKey(b)] = b
	}
	for _, nb := range newDoc.Benchmarks {
		ob, ok := oldBy[benchKey(nb)]
		if ok && ob.GOMAXPROCS > 0 && nb.GOMAXPROCS > 0 && ob.GOMAXPROCS != nb.GOMAXPROCS {
			return fmt.Errorf("GOMAXPROCS differs: %s ran at %d in the old file and %d in the new one; record both at the same GOMAXPROCS",
				benchKey(nb), ob.GOMAXPROCS, nb.GOMAXPROCS)
		}
	}
	return nil
}

// compareDocs writes a regression report to w and returns the number of
// regressions found among benchmarks common to both documents.
func compareDocs(oldDoc, newDoc Document, nsTol float64, w io.Writer) int {
	oldBy := make(map[string]Benchmark, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		oldBy[benchKey(b)] = b
	}
	var regressions, compared int
	var newOnly []string
	for _, nb := range newDoc.Benchmarks {
		key := benchKey(nb)
		ob, ok := oldBy[key]
		if !ok {
			newOnly = append(newOnly, key)
			continue
		}
		delete(oldBy, key)
		compared++
		if ob.NsPerOp > 0 && nb.NsPerOp > ob.NsPerOp*(1+nsTol) {
			regressions++
			fmt.Fprintf(w, "REGRESSION %s: ns/op %.0f -> %.0f (%+.1f%%, tolerance %.0f%%)\n",
				key, ob.NsPerOp, nb.NsPerOp, 100*(nb.NsPerOp/ob.NsPerOp-1), 100*nsTol)
		}
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil && *nb.AllocsPerOp > *ob.AllocsPerOp {
			regressions++
			fmt.Fprintf(w, "REGRESSION %s: allocs/op %.0f -> %.0f (any increase flagged)\n",
				key, *ob.AllocsPerOp, *nb.AllocsPerOp)
		}
	}
	var oldOnly []string
	for key := range oldBy {
		oldOnly = append(oldOnly, key)
	}
	sort.Strings(oldOnly)
	for _, key := range oldOnly {
		fmt.Fprintf(w, "note: %s only in old baseline\n", key)
	}
	sort.Strings(newOnly)
	for _, key := range newOnly {
		fmt.Fprintf(w, "note: %s only in new baseline\n", key)
	}
	fmt.Fprintf(w, "benchjson: compared %d common benchmarks (%d only-old, %d only-new): %d regression(s)\n",
		compared, len(oldOnly), len(newOnly), regressions)
	return regressions
}

// runCompare is the -compare entry point; returns the process exit code.
func runCompare(oldPath, newPath string, nsTol float64, w io.Writer) int {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	if err := checkProcs(oldDoc, newDoc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	if compareDocs(oldDoc, newDoc, nsTol, w) > 0 {
		return 1
	}
	return 0
}
