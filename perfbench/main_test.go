package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tiny runs every workload at a twentieth of its row counts, for one
// round of each kind the run loop demands.
func tiny(t *testing.T, name string, trace bool, f fault) (*result, map[string]any) {
	t.Helper()
	res, info, err := run(options{workload: name, seed: 7, seconds: 0.01, trace: trace,
		workdir: t.TempDir(), scale: 0.05, fault: f})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, info
}

var names = []string{"dashboards", "tenants", "archive", "sharded"}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	return endToEnd, perLayer
}

func reported(res *result) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, ",") == strings.Join(b, ",")
}

func TestTinyRunsPassTheirChecks(t *testing.T) {
	e2e, layers := declared(t)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res, info := tiny(t, name, trace, faultNone)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", name, trace,
					res.Correct, res.Attempted, res.Failed, info["errors"])
			}
			want := e2e
			if trace {
				want = layers
			}
			if got := reported(res); !sameSet(got, want) {
				t.Errorf("%s trace=%v reports %v, BENCHMARK.json declares %v", name, trace, got, want)
			}
			if !trace {
				for n, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, n, m.Value)
					}
				}
			}
		}
	}
}

func TestCorruptedResultBatchIsCaught(t *testing.T) {
	for _, name := range names {
		res, _ := tiny(t, name, false, faultCorruptBatch)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted result batch went unnoticed (failed=%d)", name, res.Failed)
		}
	}
}

func TestDroppedAcknowledgedRowIsCaught(t *testing.T) {
	res, info := tiny(t, "archive", false, faultDropAckedRow)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("archive: a lost acknowledged row went unnoticed (failed=%d)", res.Failed)
	}
	// The recovery check itself must catch it, not only the window
	// results the missing row also changes.
	errs, _ := info["errors"].([]string)
	found := false
	for _, e := range errs {
		found = found || strings.Contains(e, "after reopen sec_events")
	}
	if !found {
		t.Errorf("archive: recovery check did not report the lost row; errors: %v", errs)
	}
}
