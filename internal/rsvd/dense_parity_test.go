package rsvd

import (
	"testing"

	"spca/internal/cluster"
)

// TestMapReduceDenseMatchesGeneric: btMapper accumulates in place in the rows
// its emitter hands out — shuffle-slab rows on the flat-slab path, value-map
// rows on the generic path (DisableDense). Both paths must give the same fit
// and the same simulated-cluster metrics, bit for bit, with and without
// retried task attempts.
func TestMapReduceDenseMatchesGeneric(t *testing.T) {
	_, rows := plantedData(200, 40, 3, 31)
	opt := DefaultOptions(3)
	opt.MaxRounds = 2
	opt.PowerIterations = 1
	for _, tc := range []struct {
		name string
		plan *cluster.FaultPlan
	}{
		{"fault-free", nil},
		{"retries", &cluster.FaultPlan{Seed: 5, TaskFailureRate: 0.04}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fit := func(disableDense bool) *Result {
				eng := testEngine()
				eng.DisableDense = disableDense
				eng.Faults = tc.plan
				eng.MaxAttempts = 12
				res, err := FitMapReduce(eng, rows, 40, opt)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			dense, generic := fit(false), fit(true)
			if a, b := fingerprint(dense), fingerprint(generic); a != b {
				t.Fatalf("fits differ: dense %s, generic %s", a, b)
			}
			if dense.Metrics != generic.Metrics {
				t.Fatalf("metrics differ:\ndense   %+v\ngeneric %+v", dense.Metrics, generic.Metrics)
			}
			if tc.plan != nil && dense.Metrics.FailedAttempts == 0 {
				t.Fatal("the fault plan retried no attempt")
			}
		})
	}
}
