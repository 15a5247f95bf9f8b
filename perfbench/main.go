// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time, checks every answer
// against an oracle, and prints one JSON line with the metrics:
//
//	go run . --workload wide-pdb --seed 42 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same workload with spans recorded around the calls into each
// layer and reports the per-layer metrics instead. See README.md for the
// workloads and the metric definitions; run.sh builds and runs it from
// the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the gated metrics every workload reports untraced. The
// same names, units and bounds are declared in BENCHMARK.json.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"space_amp", "ratio"},
	{"ok_ratio", "ratio"},
}

// perLayer lists the metrics of the traced run. A layer that does not
// run on a workload reports 0 for its metrics there.
var perLayer = []metricSpec{
	// The workload's own user-facing figures, by operation kind.
	{"discover_ms_p50", "ms"},
	{"serve_rps", "1/s"},
	{"member_us_p50", "us"},
	{"member_us_p90", "us"},
	{"containment_us_p50", "us"},
	{"inds_us_p50", "us"},
	{"verify_us_p50", "us"},
	{"verify_us_p90", "us"},
	{"reload_ms_p50", "ms"},
	{"fail_ratio", "ratio"},
	{"samples", "count"},
	{"latency_ms_tail", "ms"},
	{"tail_pct", "pct"},

	{"relstore.collect_ms", "ms"},
	{"relstore.values_scanned", "count"},

	{"extsort.sort_ms", "ms"},
	{"extsort.values_in", "count"},
	{"extsort.distinct_out", "count"},
	{"extsort.dedup_ratio", "ratio"},
	{"extsort.spill_runs", "count"},

	{"store.create_us_p50", "us"},
	{"store.write_ms", "ms"},
	{"store.files_created", "count"},
	{"store.bytes_written", "bytes"},
	{"store.open_us_p50", "us"},
	{"store.read_ms", "ms"},
	{"store.bytes_read", "bytes"},
	{"store.leaked_files", "count"},
	{"store.leaked_fds", "count"},

	{"sketch.build_ms", "ms"},
	{"sketch.bytes", "bytes"},
	{"sketch.pretest_ms", "ms"},
	{"sketch.pruned", "count"},
	{"sketch.prune_ratio", "ratio"},
	{"sketch.probe_us_p50", "us"},

	{"ind.export_ms", "ms"},
	{"ind.candidates_ms", "ms"},
	{"ind.candidates", "count"},
	{"ind.merge_ms", "ms"},
	{"ind.merge_items_read", "count"},
	{"ind.merge_bytes_read", "bytes"},
	{"ind.merge_comparisons", "count"},
	{"ind.merge_items_per_s", "1/s"},
	{"ind.merge_satisfied_ratio", "ratio"},
	{"ind.merge_max_open_files", "count"},
	{"ind.nary_level1_ms", "ms"},
	{"ind.nary_level2_ms", "ms"},
	{"ind.nary_level3_ms", "ms"},
	{"ind.nary_level4_ms", "ms"},
	{"ind.nary_candidates_l2", "count"},
	{"ind.nary_candidates_l3", "count"},
	{"ind.nary_items_read", "count"},

	{"serve.stage_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.member_bloom_share", "ratio"},
	{"serve.member_cursor_share", "ratio"},
	{"serve.bloom_false_hit_ratio", "ratio"},
	{"serve.snapshot_open_us_p50", "us"},
	{"serve.member_handler_us_mean", "us"},
	{"serve.containment_handler_us_mean", "us"},
	{"serve.inds_handler_us_mean", "us"},
	{"serve.verify_handler_us_mean", "us"},
	{"serve.reload_handler_us_mean", "us"},
	{"serve.member_wire_us", "us"},
	{"serve.containment_wire_us", "us"},
	{"serve.inds_wire_us", "us"},
	{"serve.verify_wire_us", "us"},
	{"serve.reload_wire_us", "us"},
	{"serve.member_us_p99", "us"},
	{"serve.verify_us_p99", "us"},
	{"serve.member_us_p999", "us"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb_per_call", "MiB"},

	{"relstore.self_ms", "ms"},
	{"extsort.self_ms", "ms"},
	{"store.self_ms", "ms"},
	{"sketch.self_ms", "ms"},
	{"ind.self_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	// scratch is the run's private directory for work dirs and exports;
	// traceDir receives the span dump of a traced run.
	scratch  string
	traceDir string
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	attempted, failed int
	// problems lists every failed check, for standard error.
	problems []string
	metrics  map[string]float64
}

// fail records one failed operation or check.
func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner. BENCHMARK.json and
// README.md give the reason for each.
var workloads = map[string]func(cfg config) (*outcome, error){
	"wide-pdb":     runWidePDB,
	"deep-uniprot": runDeepUniProt,
	"nary-scop":    runNarySCOP,
	"serve-mixed":  runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+workloadNames())
	seed := fl.Int64("seed", 42, "seed the workload's inputs are generated from")
	seconds := fl.Int("seconds", 10, "how long the measured phase runs")
	trace := fl.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	scratch := fl.String("scratch", "", "private scratch directory (created; removed at exit)")
	traceDir := fl.String("trace-dir", "", "directory the span dump of a traced run is written to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *scratch == "" {
		fmt.Fprintf(stderr, "perfbench: want --workload (%s), --seconds >= 1, --trace 0|1 and --scratch\n", workloadNames())
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed, duration: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scratch: *scratch, traceDir: *traceDir,
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.scratch)

	out, err := w(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: FAIL:", p)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	line, err := resultLine(out, specs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// resultLine renders the final JSON object. Every metric of specs must
// have been measured.
func resultLine(out *outcome, specs []metricSpec) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		ms[s.name] = metric{Value: v, Unit: s.unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, ms})
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// workDir returns a fresh, not yet existing directory under the scratch
// directory.
func workDir(cfg config, label string, i int) string {
	return filepath.Join(cfg.scratch, fmt.Sprintf("%s-%04d", label, i))
}
