package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/workload"
)

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the metrics
// and workloads this command reports in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w, specs[i].name)
		}
	}
	var e2e, layers []metricDef
	for _, d := range metricDefs {
		if d.gated {
			e2e = append(e2e, d)
		} else {
			layers = append(layers, d)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, perfbench %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, e2e, true)
	compare("per_layer", doc.PerLayer, layers, false)
}

// exactMetrics are the counts that must repeat exactly per seed.
var exactMetrics = []string{
	"webserve.repo_requests_per_page",
	"webserve.site_mo_requests_per_page",
	"core.deallocs",
	"core.proc_flips",
	"core.offload_messages",
	"plan_d",
	"replan_copy_mb",
}

// TestExactCountsRepeatPerSeed runs a scaled-down replan-drift twice on one
// seed and once on a held-out seed: the exact counts must repeat on the
// first and move on the second, which shows the seed reaches every
// generator the counts depend on.
func TestExactCountsRepeatPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three clusters")
	}
	sp, _ := specByName("replan-drift")
	sp.cfg = func() workload.Config {
		c := workload.SmallConfig()
		c.PageRatePerSite *= 5 // enough load that processing restoration flips
		return c
	}
	sp.exactPages = 30
	runOnce := func(seed uint64) map[string]float64 {
		res, err := run(sp, runOpts{seed: seed, seconds: 0.5, traced: true, traceDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.checks) > 0 {
			t.Fatalf("seed %d: failed checks: %v", seed, res.checks)
		}
		return res.metrics
	}
	a, b, held := runOnce(21), runOnce(21), runOnce(22)
	for _, name := range exactMetrics {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v on the same seed", name, a[name], b[name])
		}
		// core.offload_messages counts protocol messages: a status and an
		// end broadcast per site plus a request and an answer per site asked
		// in each round, so it coincides whenever two negotiations ask the
		// same sites the same number of times; every other count moves with
		// the inputs.
		if a[name] == held[name] && name != "core.offload_messages" {
			t.Errorf("%s: %v on both seed 21 and held-out seed 22", name, a[name])
		}
		t.Logf("%-36s seed 21: %v  seed 22: %v", name, a[name], held[name])
	}
}
