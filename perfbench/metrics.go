package main

import (
	"fmt"
	"strings"
)

// metric declares one reported figure: its name in the result line and its
// unit. BENCHMARK.json declares the same names (the tests check both ways).
type metric struct{ name, unit string }

// endToEnd are the figures a user of the system sees, measured with tracing
// off and printed by every workload. What each one means per workload is in
// README.md ("End-to-end metrics").
var endToEnd = []metric{
	{"setup_s", "s"},
	{"lat_ms_p50", "ms"},
	{"lat_ms_tail", "ms"},
	{"values_per_s", "1/s"},
	{"msgs_per_value", "count"},
	{"sigs_per_value", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's figures, one group per module of the
// program. A layer a workload does not exercise reports 0.
var perLayer = []metric{
	{"core.setup_ms", "ms"},
	{"core.setup_share", "ratio"},
	{"protocols.step_ms", "ms"},
	{"sim.engine_self_ms", "ms"},
	{"sim.engine_self_us_per_msg", "us"},
	{"sig.verify_calls", "count"},
	{"sig.verify_ms", "ms"},
	{"sig.sign_calls", "count"},
	{"sig.sign_ms", "ms"},
	{"sig.cache_hit_ratio", "ratio"},
	{"faultnet.actions_per_run", "count"},
	{"service.submit_us_p50", "us"},
	{"service.admit_wait_ms_p50", "ms"},
	{"service.admit_wait_ms_p99", "ms"},
	{"service.deliver_wait_ms_p50", "ms"},
	{"service.deliver_wait_ms_p99", "ms"},
	{"service.batch_mean", "count"},
	{"service.queue_high_water", "count"},
	{"runner.shard_wait_ms_p50", "ms"},
	{"runner.shard_wait_ms_p99", "ms"},
	{"runner.shard_imbalance", "ratio"},
	{"transport.run_ms_p50", "ms"},
	{"transport.run_ms_p99", "ms"},
	{"transport.first_run_ms", "ms"},
	{"transport.bytes_per_instance", "B"},
	{"journal.admit_ms_p50", "ms"},
	{"journal.admit_ms_p99", "ms"},
	{"journal.checkpoint_ms_p50", "ms"},
	{"journal.syncs_per_value", "count"},
	{"journal.bytes_per_value", "B"},
	{"journal.open_ms", "ms"},
	{"journal.replay_ms", "ms"},
	{"journal.replays_per_s", "1/s"},
	{"obs.scrape_us_p50", "us"},
	{"runtime.alloc_mb_per_run", "MB"},
	{"runtime.alloc_kb_per_value", "KB"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.unattributed_frac", "ratio"},
}

// unattributedBound is the largest share of a traced value's (or run's)
// interval the spans may leave uncovered before the run fails: the spans
// are consecutive by construction, so anything above a few percent means
// the instance-id linking lost spans.
const unattributedBound = 0.05

// figure is one workload-specific number, printed under the name the
// workload's documentation uses (run_ms_p50, light.lat_ms_p99, restart_ms,
// ...) before the final result line.
type figure struct {
	name  string
	value float64
	unit  string
	n     int // sample count behind the figure; 0 when it is not a sample statistic
}

// result is one workload run's outcome.
type result struct {
	attempted int
	failed    int
	problems  []string           // correctness-gate failures
	values    map[string]float64 // end-to-end and per-layer figures by name
	figures   []figure
}

func newResult() *result { return &result{values: make(map[string]float64)} }

// fail records a correctness-gate failure. It does not count an operation:
// callers that lose an operation also bump failed.
func (r *result) fail(format string, args ...any) {
	const keep = 20
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == keep {
		r.problems = append(r.problems, "(further failures elided)")
	}
}

// lose counts one failed operation and records why.
func (r *result) lose(format string, args ...any) {
	r.failed++
	r.fail(format, args...)
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) figure(name string, v float64, unit string, n int) {
	r.figures = append(r.figures, figure{name: name, value: v, unit: unit, n: n})
}

// ok reports whether every output passed the correctness gate.
func (r *result) ok() bool { return len(r.problems) == 0 && r.failed == 0 }

// merge folds another run's counts and gate failures into r (the traced
// invocation runs a workload twice).
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

// figureLines renders the workload-specific figures, one per line.
func (r *result) figureLines(workload string) string {
	var b strings.Builder
	for _, f := range r.figures {
		fmt.Fprintf(&b, "%s %s %.6g %s", workload, f.name, f.value, f.unit)
		if f.n > 0 {
			fmt.Fprintf(&b, " (n=%d)", f.n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
