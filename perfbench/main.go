// Command perfbench is the repository's end-to-end benchmark. It drives one
// named workload through the system's real entry points — the in-process
// loopback webserve cluster fetched by webserve.Client, and the re-plan
// cycle estimate → core.Plan → repair.ChangeDelta → model.Diff →
// Cluster.ApplyPlan — checks the outputs, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 it carries the end-to-end metrics, measured with tracing
// off; with --trace 1 the per-layer metrics of a separate traced run, whose
// span forest is written under --trace-dir. Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 25 --trace 0
//
// The exit status is 0 only when every correctness check passed. See
// perfbench/README.md for the workloads, metrics and baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// gated marks the end-to-end metrics of the untraced run's JSON result.
	// They are defined on every workload, over its unit of work (an "op": a
	// page view on serve-*, a re-plan on replan-drift), and repeat closely
	// enough across runs to carry a regression bound.
	gated bool
	// layer marks a per-layer metric. Per-layer metrics, and the named
	// end-to-end metrics that are neither gated nor layer (each defined on
	// the workloads it applies to, or exact per seed, or 0 when healthy),
	// make up the traced run's JSON result. The untraced run prints the
	// named ones it measured beside its gated ones.
	layer bool
}

func gated(name, unit, better string) metricDef { return metricDef{name, unit, better, true, false} }
func named(name, unit, better string) metricDef { return metricDef{name, unit, better, false, false} }
func layer(name, unit, better string) metricDef { return metricDef{name, unit, better, false, true} }

var metricDefs = []metricDef{
	gated("setup_s", "s", "lower"),
	gated("op_p50_ms", "ms", "lower"),
	gated("cpu_ms_per_op", "ms", "lower"),
	gated("max_rss_mb", "MB", "lower"),

	named("pages_per_s", "pages/s", "higher"),
	named("page_p50_ms", "ms", "lower"),
	named("page_p99_ms", "ms", "lower"),
	named("cpu_ms_per_page", "ms", "lower"),
	named("replan_p50_s", "s", "lower"),
	named("cpu_s_per_replan", "s", "lower"),
	named("cold_page_p50_ms", "ms", "lower"),
	named("plan_d", "weighted_s", "lower"),
	named("replan_copy_mb", "MB", "lower"),
	named("fail_ratio", "ratio", "lower"),
	named("host.steal_share", "ratio", "lower"),

	layer("webserve.object_open_us", "us", "lower"),
	layer("webserve.object_stream_us", "us", "lower"),
	layer("webserve.verify_us", "us", "lower"),
	layer("webserve.payload_allocs_per_object", "count", "lower"),
	layer("htmlrefs.serve_tier_us", "us", "lower"),
	layer("htmlrefs.parse_refs_us", "us", "lower"),
	layer("htmlrefs.allocs_per_page", "count", "lower"),
	layer("admission.admit_ns", "ns", "lower"),
	layer("admission.sheds", "count", "lower"),
	layer("webserve.client.local_chain_ms", "ms", "lower"),
	layer("webserve.client.remote_chain_ms", "ms", "lower"),
	layer("webserve.client.remote_critical_share", "ratio", "lower"),
	layer("webserve.client.retries_per_page", "count", "lower"),
	layer("webserve.client.fallbacks_per_page", "count", "lower"),
	layer("webserve.repo_requests_per_page", "count", "lower"),
	layer("webserve.site_mo_requests_per_page", "count", "higher"),
	layer("estimate.observe_ns", "ns", "lower"),
	layer("estimate.snapshot_ms", "ms", "lower"),
	layer("estimate.detector_check_ms", "ms", "lower"),
	layer("estimate.estimate_workload_ms", "ms", "lower"),
	layer("core.new_planner_ms", "ms", "lower"),
	layer("core.new_planner.allocs", "count", "lower"),
	layer("core.partition_ms", "ms", "lower"),
	layer("core.partition.allocs", "count", "lower"),
	layer("core.restore_storage_ms", "ms", "lower"),
	layer("core.restore_storage.allocs", "count", "lower"),
	layer("core.restore_processing_ms", "ms", "lower"),
	layer("core.restore_processing.allocs", "count", "lower"),
	layer("core.offload_ms", "ms", "lower"),
	layer("core.offload.allocs", "count", "lower"),
	layer("core.deallocs", "count", "lower"),
	layer("core.proc_flips", "count", "lower"),
	layer("core.offload_messages", "count", "lower"),
	layer("repair.change_delta_ms", "ms", "lower"),
	layer("model.diff_ms", "ms", "lower"),
	layer("webserve.apply_plan_ms", "ms", "lower"),
	layer("webserve.post_apply_page_ms", "ms", "lower"),
	layer("go.allocs_per_page", "count", "lower"),
	layer("go.alloc_mb_per_page", "MB", "lower"),
	layer("go.gc_cpu_fraction", "ratio", "lower"),
	layer("go.allocs_per_replan", "count", "lower"),
	layer("trace.overhead_pct", "%", "lower"),
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 25, "measured seconds per run (set-up excluded)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = untraced end-to-end run")
	traceDir := fs.String("trace-dir", ".bench_build/perfbench-trace", "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	// One process hosts the cluster and its client on every core.
	runtime.GOMAXPROCS(runtime.NumCPU())

	traced := *traceFlag == 1
	res, err := run(sp, runOpts{seed: *seed, seconds: *seconds, traced: traced, traceDir: *traceDir})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		sp.name, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "  workload: %s\n", sp.why)
	out := report(stdout, res, traced)
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run's metrics and checks and returns the JSON result.
// A metric the run could not measure is a failed check.
func report(w io.Writer, res *result, traced bool) output {
	out := output{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, def := range metricDefs {
		v, ok := res.metrics[def.name]
		switch {
		case traced && def.gated, !traced && def.layer, !traced && !def.gated && !ok:
			continue
		}
		res.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s was not measured", def.name)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		note := res.notes[def.name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-10s %s is better%s\n", def.name, v, def.unit, def.better, note)
		if traced || def.gated {
			out.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		}
	}
	if traced {
		fmt.Fprintf(w, "  self time per span (benchmark-side calls into each layer):\n")
		fmt.Fprintf(w, "    %-40s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
		for _, r := range res.layers {
			fmt.Fprintf(w, "    %-40s %8d %12.3f %12.3f\n", r.name, r.calls, r.total*1e3, r.self*1e3)
		}
		for _, f := range res.files {
			fmt.Fprintf(w, "  spans written to %s\n", f)
		}
	}
	out.Correct = len(res.checks) == 0
	if out.Correct {
		fmt.Fprintf(w, "  checks: all passed (%d attempted, %d failed)\n", res.attempted, res.failed)
	}
	for _, c := range res.checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
	return out
}
