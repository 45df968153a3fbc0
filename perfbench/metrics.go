package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// e2eMetric is one end-to-end metric of the report.
type e2eMetric struct {
	name, unit, better string
	bound              float64
	doc                string
}

// endToEnd lists the metrics every untraced run prints, for every
// workload. BENCHMARK.json carries the same names, units, directions
// and bounds (TestBenchmarkJSONMatchesTables).
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, "median time of several set-ups: input generation and encoding, energy.BuildACG, and for serve-mixed server start, Warmup, priming the hot set and the nominal phase's requests"},
	{"solves_per_s", "1/s", "higher", 0.25, "solves completed per second spent inside solver calls (serve-mixed: cold solves over their solve_us)"},
	{"solve_ms_p50", "ms", "lower", 0.25, "nearest-rank median solve time"},
	{"solve_ms_tail", "ms", "lower", 0.25, "highest nearest-rank percentile with at least 10 solves beyond it"},
	{"req_ms_p50", "ms", "lower", 0.25, "median operation latency: a request timed from when it was due (serve-mixed), or a solve plus its checks (closed-loop suites)"},
	{"req_ms_tail", "ms", "lower", 0.25, "operation latency at the tail percentile"},
	{"max_rps_at_slo", "1/s", "higher", 0.25, "serve-mixed: median over three searches of the achieved rate of the highest ladder rung, at or below the back-to-back capacity, where most of five probes have req tail <= 25 ms, no failures and no growing backlog; closed-loop suites: median per-pass operations per wall second of the one client"},
	{"energy_nj", "nJ", "lower", 0.01, "mean Eq. 2/3 total energy per operation"},
	{"deadline_met_share", "ratio", "higher", 0.01, "share of deadline tasks that meet their deadlines"},
	{"ok_share", "ratio", "higher", 0.01, "share of operations that succeeded and passed every check"},
	{"alloc_mb_per_op", "MB", "lower", 0.05, "runtime TotalAlloc growth per operation over the measured window"},
	{"peak_rss_mb", "MB", "lower", 0.15, "process peak resident memory (VmHWM); serve-mixed: read before the rate ladder"},
}

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it should move.
type layerMetric struct {
	name, unit, better string
	moves, workload    string
}

// perLayer lists the metrics every traced run prints.
var perLayer = []layerMetric{
	{"ctg.decode_ms_p50", "ms", "lower", "req_ms_p50", "serve-mixed"},
	{"serve.digest_ms_p50", "ms", "lower", "req_ms_p50", "serve-mixed"},
	{"serve.hit_ms_p50", "ms", "lower", "req_ms_p50, max_rps_at_slo", "serve-mixed"},
	{"serve.encode_ms_p50", "ms", "lower", "req_ms_p50, max_rps_at_slo", "serve-mixed"},
	{"serve.response_kb", "kB", "lower", "req_ms_p50, max_rps_at_slo", "serve-mixed"},
	{"serve.miss_ms_p50", "ms", "lower", "req_ms_tail", "serve-mixed"},
	{"serve.miss_overhead_ms_p50", "ms", "lower", "req_ms_tail", "serve-mixed"},
	{"serve.hit_ratio", "ratio", "higher", "req_ms_p50, req_ms_tail, ok_share", "serve-mixed"},
	{"serve.evictions", "count", "lower", "req_ms_p50, req_ms_tail, ok_share", "serve-mixed"},
	{"serve.rejected_429", "count", "lower", "req_ms_tail, ok_share", "serve-mixed"},
	{"batch.service_ms_mean", "ms", "lower", "req_ms_tail", "serve-mixed"},
	{"batch.instances", "count", "lower", "req_ms_tail", "serve-mixed"},
	{"acg.build_ms.4x4", "ms", "lower", "setup_s", "loose-suite, serve-mixed"},
	{"acg.build_ms.6x6", "ms", "lower", "setup_s", "loose-suite"},
	{"eas.budget_ms_per_solve", "ms", "lower", "solves_per_s, solve_ms_p50", "loose-suite"},
	{"eas.level_ms_per_solve", "ms", "lower", "solves_per_s, solve_ms_p50", "loose-suite"},
	{"eas.probes_per_solve", "count", "lower", "solves_per_s, solve_ms_p50", "loose-suite"},
	{"eas.level_us_per_probe", "us", "lower", "solves_per_s, solve_ms_p50", "loose-suite"},
	{"eas.repair_ms_per_solve", "ms", "lower", "solves_per_s, solve_ms_tail", "tight-suite"},
	{"eas.repair_moves_per_solve", "count", "lower", "solves_per_s, solve_ms_tail", "tight-suite"},
	{"eas.repair_us_per_move", "us", "lower", "solves_per_s, solve_ms_tail", "tight-suite"},
	{"eas.repair_runs", "count", "lower", "solves_per_s, solve_ms_tail", "tight-suite"},
	{"eas.passes_per_solve", "count", "lower", "solves_per_s, solve_ms_tail", "tight-suite"},
	{"eas.fallback_runs", "count", "lower", "solve_ms_tail", "tight-suite"},
	{"sched.commits_per_solve", "count", "lower", "solves_per_s", "loose-suite, tight-suite"},
	{"sched.rollbacks_per_solve", "count", "lower", "solves_per_s", "loose-suite, tight-suite"},
	{"dls.ms_per_solve", "ms", "lower", "solves_per_s", "dls-suite"},
	{"verify.ms_p50", "ms", "lower", "req_ms_tail", "serve-mixed"},
	{"gc.cycles_per_op", "count", "lower", "solves_per_s, alloc_mb_per_op", "tight-suite"},
	{"gc.pause_ms_per_op", "ms", "lower", "solves_per_s, alloc_mb_per_op", "tight-suite"},
	{"loadgen.late_ms_tail", "ms", "lower", "validity of req_ms_*", "serve-mixed"},
	{"loadgen.backlog_max", "count", "lower", "validity of req_ms_*", "serve-mixed"},
	{"trace.overhead_share", "ratio", "lower", "(traced vs untraced cost)", "loose-suite"},
}

// report is one run's result.
type report struct {
	workload  string
	attempted int
	failed    int
	problems  []string // guard violations and check failures
	values    map[string]float64
	notes     []string // human-readable lines printed before the JSON
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// jsonMetric is one entry of the report's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// finish validates the report against the metric list it must carry
// and returns the JSON object. A missing or non-finite metric is a
// problem of the benchmark itself and makes the report incorrect.
func (r *report) finish(traced bool) jsonReport {
	out := jsonReport{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	add := func(name, unit string) {
		if !validMetricName(name) {
			r.problem("metric name %q is not valid", name)
		}
		v, ok := r.values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s missing or not finite (%v)", name, v)
			v = 0
		}
		out.Metrics[name] = jsonMetric{Value: v, Unit: unit}
	}
	if traced {
		for _, m := range perLayer {
			add(m.name, m.unit)
		}
	} else {
		for _, m := range endToEnd {
			add(m.name, m.unit)
		}
	}
	if out.Attempted < 1 {
		r.problem("no operation attempted")
		out.Attempted = 1
	}
	out.Correct = len(r.problems) == 0 && r.failed == 0
	return out
}

// write prints the notes, a metric table and, as the last line, the
// JSON report.
func (r *report) write(w io.Writer, traced bool) error {
	j := r.finish(traced)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	if traced {
		fmt.Fprintf(w, "%-28s %14s %-6s  %s\n", "per-layer metric", "value", "unit", "should move -> on workload")
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-28s %14s %-6s  %s -> %s\n", m.name, fmtValue(j.Metrics[m.name].Value), m.unit, m.moves, m.workload)
		}
	} else {
		fmt.Fprintf(w, "%-20s %14s %-6s  (%s)\n", "end-to-end metric", "value", "unit", r.workload)
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%-20s %14s %-6s\n", m.name, fmtValue(j.Metrics[m.name].Value), m.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: "+p)
	}
	line, err := json.Marshal(j)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// parseReport reads the JSON report from the last line of a run's
// output and checks its schema: exactly the four keys, and every
// metric of the expected list, by name with its unit, and nothing else.
func parseReport(output string, traced bool) (jsonReport, error) {
	lines := strings.Split(strings.TrimRight(output, "\n"), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		return jsonReport{}, fmt.Errorf("last line is not a JSON object: %w", err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "attempted,correct,failed,metrics" {
		return jsonReport{}, fmt.Errorf("report keys %v", names)
	}
	var j jsonReport
	if err := json.Unmarshal([]byte(last), &j); err != nil {
		return jsonReport{}, err
	}
	want := make(map[string]string)
	if traced {
		for _, m := range perLayer {
			want[m.name] = m.unit
		}
	} else {
		for _, m := range endToEnd {
			want[m.name] = m.unit
		}
	}
	for name, m := range j.Metrics {
		unit, ok := want[name]
		if !ok {
			return j, fmt.Errorf("unexpected metric %s", name)
		}
		if m.Unit != unit {
			return j, fmt.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
	}
	if len(j.Metrics) != len(want) {
		return j, fmt.Errorf("report has %d metrics, want %d", len(j.Metrics), len(want))
	}
	if j.Attempted < 1 || j.Failed < 0 || j.Failed > j.Attempted {
		return j, fmt.Errorf("attempted %d, failed %d", j.Attempted, j.Failed)
	}
	return j, nil
}
