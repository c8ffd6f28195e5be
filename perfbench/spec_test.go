package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metrics the benchmark prints are the ones BENCHMARK.json declares,
// with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, code []metricDef, declared []struct{ Name, Unit string }) {
		if len(code) != len(declared) {
			t.Errorf("%s: %d metrics in code, %d declared", kind, len(code), len(declared))
			return
		}
		for i := range code {
			if code[i].Name != declared[i].Name || code[i].Unit != declared[i].Unit {
				t.Errorf("%s %d: code %v, declared %v", kind, i, code[i], declared[i])
			}
		}
	}
	match("end_to_end", e2eMetrics, spec.EndToEnd)
	match("per_layer", layerMetrics, spec.PerLayer)
}
