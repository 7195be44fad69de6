package main

import (
	"io"
	"testing"
	"time"
)

// tinyOps is each workload's per-session op budget in the self-test:
// small, and fixed, so two runs on one seed issue the same ops.
var tinyOps = map[string]int{
	"authz-read":      40,
	"credential-sync": 2 * (batchSize + 2), // two batches
	"revoke-churn":    12,                  // six grant/revoke pairs
}

// deterministic are the per-layer counts that must repeat exactly when
// a workload is run twice on one seed.
var deterministic = []string{
	"datalog.query_gas",
	"workspace.retract_assert_gas_ratio",
	"dist.wire_bytes_per_msg",
	"dist.envelopes_per_batch",
	"store.wal_bytes_per_write",
}

func tinyConfig(t *testing.T, name string, seed int64) config {
	return config{seed: seed, window: time.Minute, maxOps: tinyOps[name], tiny: true, tmp: t.TempDir()}
}

func traced(t *testing.T, name string, seed int64) *ledger {
	t.Helper()
	res, l, err := runTraced(name, workloads[name], tinyConfig(t, name, seed), t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed", name, seed, res.Failed, res.Attempted)
	}
	return l
}

func TestCountsRepeatOnOneSeed(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := traced(t, name, 1), traced(t, name, 1)
			for _, k := range deterministic {
				va, ok := a.value(k)
				if !ok {
					t.Fatalf("no %s in the ledger", k)
				}
				if vb, _ := b.value(k); va != vb {
					t.Errorf("%s: %v then %v", k, va, vb)
				}
				t.Logf("%s = %v", k, va)
			}
		})
	}
}

func TestSecondSeedPassesOracles(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := runE2E(workloads[name], tinyConfig(t, name, 2), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			// Rates are not checked: a tiny run's op budget ends some
			// sessions inside the first sub-window.
			for _, k := range []string{"setup_s", "query_mean_us", "op_mean_ms"} {
				if res.Metrics[k].Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, res.Metrics[k].Value)
				}
			}
		})
	}
}

// value is a ledger metric by name, from the result line or the
// ledger-only numbers.
func (l *ledger) value(name string) (float64, bool) {
	if m, ok := l.m[name]; ok {
		return m.Value, true
	}
	for _, a := range l.info {
		if a.name == name {
			return a.Value, true
		}
	}
	return 0, false
}
