package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-tests check the
// program's output against.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs a workload at its tiny size for half a second.
func runTiny(t *testing.T, workload string, trace bool, edit func(*options)) *result {
	t.Helper()
	o := options{workload: workload, seed: 3, seconds: 0.5, trace: trace, workdir: t.TempDir(), tiny: true}
	if edit != nil {
		edit(&o)
	}
	res, err := run(o)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the program does not have", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res := runTiny(t, name, trace, nil)
			if !res.correct() {
				t.Errorf("%s (trace %v): checks failed: %v", name, trace, res.violations)
			}
			if res.attempted < 1 {
				t.Errorf("%s (trace %v): attempted = %d", name, trace, res.attempted)
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics emitted, BENCHMARK.json names %d", name, trace, len(res.metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not emitted", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case got.Value != got.Value:
					t.Errorf("%s (trace %v): metric %s is NaN", name, trace, m.Name)
				}
			}
		}
	}
}

// pinsFrom reads the reference fits of an untraced run back as pins.
func pinsFrom(t *testing.T, res *result, workload string) map[string]pin {
	t.Helper()
	out := map[string]pin{}
	for alg, m := range res.detail["per_algorithm"].(map[string]map[string]any) {
		out[workload+"/"+alg] = pin{Fingerprint: m["fingerprint"].(string), SimSeconds: m["sim_s"].(float64)}
	}
	if len(out) == 0 {
		t.Fatal("no per-algorithm detail to pin")
	}
	return out
}

func TestFingerprintPinGatesTheRun(t *testing.T) {
	first := runTiny(t, "em-sparse", false, nil)
	pins := pinsFrom(t, first, "em-sparse")
	withPins := func(p map[string]pin) func(*options) {
		return func(o *options) { o.pins, o.pinSeed = p, o.seed }
	}
	if res := runTiny(t, "em-sparse", false, withPins(pins)); !res.correct() {
		t.Fatalf("run with correct pins failed: %v", res.violations)
	}
	for key, p := range pins {
		bad := map[string]pin{}
		for k, v := range pins {
			bad[k] = v
		}
		p.Fingerprint = fmt.Sprintf("%016x", 1)
		bad[key] = p
		res := runTiny(t, "em-sparse", false, withPins(bad))
		if res.correct() || !strings.Contains(strings.Join(res.violations, "\n"), "pin") {
			t.Errorf("corrupted pin for %s: run passed (violations %v)", key, res.violations)
		}
		break
	}
}

func TestTamperedServeResponseFailsTheRun(t *testing.T) {
	res := runTiny(t, "serve-mixed", false, func(o *options) {
		o.tamper = func(p []byte) {
			if len(p) > 20 {
				p[len(p)-1] ^= 1
			}
		}
	})
	if res.correct() {
		t.Fatal("run with tampered serve responses passed")
	}
}

func TestTracedFingerprintsMatchUntraced(t *testing.T) {
	for _, w := range []string{"em-sparse", "sketch-dense"} {
		res := runTiny(t, w, true, nil)
		if !res.correct() {
			t.Fatalf("%s: traced run failed: %v", w, res.violations)
		}
		fp := res.detail["fingerprints"].(map[string]any)
		tr, un := fp["traced"].(map[string]string), fp["untraced"].(map[string]string)
		if len(tr) == 0 || len(tr) != len(un) {
			t.Fatalf("%s: fingerprints traced %v untraced %v", w, tr, un)
		}
		for alg, f := range un {
			if tr[alg] != f {
				t.Errorf("%s/%s: traced fingerprint %s, untraced %s", w, alg, tr[alg], f)
			}
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 40 || pct != 80 {
		t.Errorf("tail of 1..50 = %v at p%v, want 40 at p80", v, pct)
	}
	if v, _ := tail(xs[:5]); v != 5 {
		t.Errorf("tail of 1..5 = %v, want the maximum", v)
	}
}
