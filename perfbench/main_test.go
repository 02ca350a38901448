package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics and
// workloads this program prints; the two must not drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(declared)
	sort.Strings(have)
	if !slices.Equal(declared, have) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", declared, have)
	}
	for _, c := range []struct {
		what     string
		declared []named
		program  []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.program) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program prints %d", c.what, len(c.declared), len(c.program))
			continue
		}
		for i, m := range c.program {
			if d := c.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program prints %s (%s)", c.what, i, d.Name, d.Unit, m.name, m.unit)
			}
		}
	}
}

// The result line carries exactly the four keys, every metric of the
// mode with its unit, and counts digest disagreement between children.
func TestReportResultLine(t *testing.T) {
	children := []*childResult{
		{Mode: "plain", Wall: 2, SimBytes: 4e6, AllocBytes: 1e6, PeakRSSKB: 1024, Attempted: 3, SetupS: 0.1,
			Digests: map[string]string{"rows": "a"}},
		{Mode: "plain", Wall: 4, SimBytes: 4e6, AllocBytes: 3e6, PeakRSSKB: 3072, Attempted: 3, SetupS: 0.3,
			Digests: map[string]string{"rows": "b"}},
	}
	var out bytes.Buffer
	if err := report(&out, "mwrite", 1, 10, false, "c", children); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys %v", res)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	if m := metrics["wall_s"]; m.Value != 3 || m.Unit != "s" {
		t.Errorf("wall_s = %+v, want the median 3 s", m)
	}
	if m := metrics["sim_mb_per_s"]; m.Value != 1.5 {
		t.Errorf("sim_mb_per_s = %v, want median of 2 and 1", m.Value)
	}
	if string(res["correct"]) != "false" || string(res["failed"]) != "1" || string(res["attempted"]) != "8" {
		t.Errorf("children with different digests of one seed: correct=%s failed=%s attempted=%s, want false 1 8",
			res["correct"], res["failed"], res["attempted"])
	}
}
