package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestDigestDeterminism is the benchmark's self-test: one seed must give the
// same simulated digest every time, and another seed a different digest,
// with every output check passing.
func TestDigestDeterminism(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer()
			a := runRound(w, subSeed(7, 0), tr, false)
			b := runRound(w, subSeed(7, 0), tr, false)
			c := runRound(w, subSeed(8, 0), tr, false)
			for _, r := range []*round{a, b, c} {
				if len(r.problems) > 0 || r.failed > 0 {
					t.Fatalf("seed %d: %d failed, problems %v", r.sub, r.failed, r.problems)
				}
			}
			if a.digest != b.digest {
				t.Errorf("same seed, different digests: %016x vs %016x", a.digest, b.digest)
			}
			if a.digest == c.digest {
				t.Errorf("different seeds, same digest %016x", a.digest)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the reported metrics in
// step: the same workloads, and the same metric names, units and
// directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, allWorkloads[i].name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
