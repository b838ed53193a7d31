package main

import (
	"bytes"
	"strings"
	"testing"
)

func fp(v float64) *float64 { return &v }

func bench(pkg, name string, ns float64, allocs *float64) Benchmark {
	return Benchmark{Name: name, Pkg: pkg, Iterations: 10, NsPerOp: ns, AllocsPerOp: allocs}
}

func doc(bs ...Benchmark) Document { return Document{Benchmarks: bs} }

func TestCompareFlagsNsRegression(t *testing.T) {
	oldDoc := doc(bench("p", "BenchmarkA", 1000, nil))
	newDoc := doc(bench("p", "BenchmarkA", 1200, nil))
	var buf bytes.Buffer
	if got := compareDocs(oldDoc, newDoc, 0.10, &buf); got != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION p BenchmarkA: ns/op 1000 -> 1200") {
		t.Errorf("missing ns regression line:\n%s", buf.String())
	}
}

func TestCompareToleratesNsWithinTolerance(t *testing.T) {
	oldDoc := doc(bench("p", "BenchmarkA", 1000, nil))
	newDoc := doc(bench("p", "BenchmarkA", 1099, nil))
	var buf bytes.Buffer
	if got := compareDocs(oldDoc, newDoc, 0.10, &buf); got != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", got, buf.String())
	}
}

func TestCompareFlagsAnyAllocIncrease(t *testing.T) {
	// allocs/op is deterministic, so even +1 alloc is a regression — and an
	// alloc increase is flagged independently of a (tolerated) ns change.
	oldDoc := doc(bench("p", "BenchmarkA", 1000, fp(0)))
	newDoc := doc(bench("p", "BenchmarkA", 1005, fp(1)))
	var buf bytes.Buffer
	if got := compareDocs(oldDoc, newDoc, 0.10, &buf); got != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "allocs/op 0 -> 1") {
		t.Errorf("missing alloc regression line:\n%s", buf.String())
	}
}

func TestCompareAllocDecreaseAndNsImprovementPass(t *testing.T) {
	oldDoc := doc(
		bench("p", "BenchmarkA", 1000, fp(50)),
		bench("p", "BenchmarkB", 2000, fp(8)),
	)
	newDoc := doc(
		bench("p", "BenchmarkA", 400, fp(3)),
		bench("p", "BenchmarkB", 2100, fp(8)),
	)
	var buf bytes.Buffer
	if got := compareDocs(oldDoc, newDoc, 0.10, &buf); got != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", got, buf.String())
	}
}

func TestCompareSkipsNonCommonBenchmarks(t *testing.T) {
	// A benchmark only present in one file is informational, never a failure
	// — new baselines grow benchmarks and that must not break the gate.
	oldDoc := doc(bench("p", "BenchmarkGone", 1, nil), bench("p", "BenchmarkA", 100, nil))
	newDoc := doc(bench("p", "BenchmarkA", 100, nil), bench("p", "BenchmarkNew", 1e9, fp(1e6)))
	var buf bytes.Buffer
	if got := compareDocs(oldDoc, newDoc, 0.10, &buf); got != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", got, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "p BenchmarkGone only in old") || !strings.Contains(out, "p BenchmarkNew only in new") {
		t.Errorf("missing only-in notes:\n%s", out)
	}
	if !strings.Contains(out, "compared 1 common benchmarks (1 only-old, 1 only-new): 0 regression(s)") {
		t.Errorf("missing summary:\n%s", out)
	}
}

func TestCompareNormalizesProcSuffix(t *testing.T) {
	// The -GOMAXPROCS suffix varies across machines; names must still match.
	oldDoc := doc(bench("p", "BenchmarkA-8", 1000, nil))
	newDoc := doc(bench("p", "BenchmarkA-32", 5000, nil))
	var buf bytes.Buffer
	if got := compareDocs(oldDoc, newDoc, 0.10, &buf); got != 1 {
		t.Fatalf("regressions = %d, want 1 (suffix-normalized match)\n%s", got, buf.String())
	}
}

func TestCompareFixturesClean(t *testing.T) {
	// The committed fixtures are the `make check` smoke gate: old -> new is
	// an improvement plus one added benchmark, so the compare must pass.
	var buf bytes.Buffer
	if code := runCompare("testdata/old.json", "testdata/new.json", 0.10, &buf); code != 0 {
		t.Fatalf("runCompare(fixtures) = %d, want 0\n%s", code, buf.String())
	}
}

func TestCompareFixtureRegression(t *testing.T) {
	var buf bytes.Buffer
	if code := runCompare("testdata/old.json", "testdata/regressed.json", 0.10, &buf); code != 1 {
		t.Fatalf("runCompare(regressed fixture) = %d, want 1\n%s", code, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "ns/op") || !strings.Contains(out, "allocs/op") {
		t.Errorf("expected both ns and alloc regressions:\n%s", out)
	}
}

func TestCompareBadFile(t *testing.T) {
	var buf bytes.Buffer
	if code := runCompare("testdata/old.json", "testdata/nope.json", 0.10, &buf); code != 2 {
		t.Fatalf("runCompare(missing file) = %d, want 2", code)
	}
}

func TestCompareRefusesGOMAXPROCSMismatch(t *testing.T) {
	// The 4-proc file allocates 7/op where the 1-proc file has 0: that is
	// worker hand-off, not a regression, so compare must refuse to judge.
	var buf bytes.Buffer
	if code := runCompare("testdata/procs1.json", "testdata/procs4.json", 0.10, &buf); code != 2 {
		t.Fatalf("runCompare(GOMAXPROCS 1 vs 4) = %d, want 2\n%s", code, buf.String())
	}
	if strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("reported host-shape regressions instead of refusing:\n%s", buf.String())
	}
	oldDoc, _ := loadDoc("testdata/procs1.json")
	newDoc, _ := loadDoc("testdata/procs4.json")
	err := checkProcs(oldDoc, newDoc)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS differs: spca/internal/matrix BenchmarkKernelsInPlace/MulInto ran at 1 in the old file and 4 in the new one") {
		t.Errorf("mismatch message = %v", err)
	}
	// Same GOMAXPROCS on both sides compares normally.
	if code := runCompare("testdata/procs4.json", "testdata/procs4.json", 0.10, &buf); code != 0 {
		t.Errorf("runCompare(procs4 vs itself) = %d, want 0", code)
	}
}

func TestParseRecordsGOMAXPROCS(t *testing.T) {
	cases := []struct {
		line  string
		procs int
	}{
		{"BenchmarkKernelsQR/seq-2   20   8318343 ns/op", 2},
		{"BenchmarkKernelsQR/seq-16   20   8318343 ns/op", 16},
		{"BenchmarkKernelsInPlace/MulInto   20   4521051 ns/op   0 B/op   0 allocs/op", 1},
	}
	for _, c := range cases {
		b, ok := parseBenchLine(c.line)
		if !ok || b.GOMAXPROCS != c.procs || b.Samples != 1 {
			t.Errorf("%q: ok=%v gomaxprocs=%d samples=%d, want %d and 1", c.line, ok, b.GOMAXPROCS, b.Samples, c.procs)
		}
	}
}

func TestFoldTakesMedianOfSamples(t *testing.T) {
	var runs []Benchmark
	for _, line := range []string{
		"BenchmarkA-2   10   300 ns/op   8 B/op   1 allocs/op   5 x/op",
		"BenchmarkA-2   10   100 ns/op   8 B/op   1 allocs/op   1 x/op",
		"BenchmarkA-2   20   200 ns/op   8 B/op   1 allocs/op   3 x/op",
	} {
		b, ok := parseBenchLine(line)
		if !ok {
			t.Fatalf("unparsed %q", line)
		}
		runs = append(runs, b)
	}
	got := fold(runs)
	if got.Samples != 3 || got.GOMAXPROCS != 2 || got.Iterations != 40 || got.NsPerOp != 200 ||
		*got.BytesPerOp != 8 || *got.AllocsPerOp != 1 || got.Extra["x/op"] != 3 {
		t.Errorf("fold = %+v", got)
	}
}
