// Command perfbench is nocsched's benchmark: one process that sets up a
// workload, measures it with tracing off, checks every output, and
// prints the end-to-end metrics as a JSON object on its last line. With
// -trace 1 it instead makes the traced layer tour and prints the
// per-layer metrics. See README.md for the workloads and metrics.
//
//	perfbench --workload tight-suite --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// passSeconds is the duration of one pass over the suite on the
	// 2-core reference host when the benchmark was defined. A run
	// makes round(seconds/passSeconds) whole passes, so the sample
	// count — and with it the rank behind every quantile — is the
	// same on every commit. Zero for the open-loop workload.
	passSeconds float64
	algo        string
}

var workloads = []workload{
	{name: "tight-suite", passSeconds: 3.6, algo: "eas"},
	{name: "loose-suite", passSeconds: 0.85, algo: "eas"},
	{name: "dls-suite", passSeconds: 6.1, algo: "dls"},
	{name: "serve-mixed"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSpanDir is where traced runs write spans, relative to the
// directory the benchmark runs in.
const defaultSpanDir = ".bench_build/perfbench"

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	// limit caps the instances per solver suite; 0 keeps them all.
	limit int
	// spanDir is where the traced run writes its spans.
	spanDir string
}

func (o options) instanceLimit() int {
	if o.limit > 0 {
		return o.limit
	}
	return math.MaxInt
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tight-suite, loose-suite, dls-suite or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: the order of every pass and the serve-mixed request stream")
	seconds := fs.Int("seconds", 20, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 makes the traced layer tour and prints per-layer metrics")
	smoke := fs.Bool("smoke", false, "run every workload briefly and check the report schema")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *smoke {
		if err := smokeAll(*seed, defaultSpanDir, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: smoke:", err)
			return 1
		}
		fmt.Fprintln(stdout, "perfbench: smoke ok")
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	opts := options{seed: *seed, seconds: float64(*seconds), spanDir: defaultSpanDir}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTour(w, opts)
	} else {
		rep, err = runUntraced(w, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runUntraced measures one workload with tracing off: the end-to-end
// metrics.
func runUntraced(w workload, o options) (*report, error) {
	if w.passSeconds == 0 {
		return runServeMixed(o)
	}
	return runSolverWorkload(w, o)
}

// setupReps is how many times a solver run sets up; setup_s is the
// median. The first few set-ups of a process run slower than the rest
// while its heap grows; with 40 the median is a warm set-up's.
const setupReps = 40

// timedSetups runs setup reps times and returns the last result with
// the median duration. Every result but the last is released.
func timedSetups[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var out T
	var durs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && release != nil {
			release(out)
		}
		runtime.GC() // start each set-up from the same heap state
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		out = v
	}
	return out, median(durs), nil
}

// passes is the whole-pass count of a closed-loop run.
func (w workload) passes(seconds float64) int {
	return max(1, int(math.Round(seconds/w.passSeconds)))
}

// solverInstances builds a solver suite's inputs: the ACGs and graphs.
func solverInstances(w workload, o options) ([]instance, error) {
	acg4, err := buildACG(mesh4, nil, "")
	if err != nil {
		return nil, err
	}
	if w.name == "tight-suite" {
		return tightSuite(acg4, o.instanceLimit())
	}
	acg6, err := buildACG(mesh6, nil, "")
	if err != nil {
		return nil, err
	}
	insts, err := looseSuite(acg4, acg6, looseSize)
	if err != nil {
		return nil, err
	}
	if w.name == "dls-suite" {
		insts = only4x4(insts)
	}
	return insts[:min(len(insts), o.instanceLimit())], nil
}

func runSolverWorkload(w workload, o options) (*report, error) {
	insts, setupS, err := timedSetups(setupReps, func() ([]instance, error) { return solverInstances(w, o) }, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport(w.name)
	passes := w.passes(o.seconds)
	run := runSolverSuite(w.algo, insts, passes, o.seed)
	rep.attempted, rep.failed = run.attempted, run.failed
	if run.firstFailure != "" {
		rep.problem("first failure: %s", run.firstFailure)
	}
	rep.set("setup_s", setupS)
	rep.set("solves_per_s", median(run.rate))
	setLatencies(rep, "solve_ms", run.solveMS, false)
	setLatencies(rep, "req_ms", run.opMS, false)
	rep.set("max_rps_at_slo", median(run.opRate))
	setQuality(rep, &run.tally)
	rep.set("alloc_mb_per_op", float64(run.allocBytes)/1e6/float64(run.attempted))
	setPeakRSS(rep)
	rep.note("%s: %d instances x %d passes, %d repair runs, closed loop with one client", w.name, len(insts), passes, run.repairRuns)
	rep.note("pass wall times (s): %.3f", run.passWall)
	switch w.name {
	case "tight-suite":
		if run.repairRuns == 0 {
			rep.problem("guard: tight-suite ran no search-and-repair")
		}
	case "loose-suite":
		if run.repairRuns != 0 {
			rep.problem("guard: loose-suite ran search-and-repair %d times", run.repairRuns)
		}
	}
	return rep, nil
}

// setLatencies sets <prefix>_p50, the median over groups of each
// group's median, and <prefix>_tail, and notes the tail's percentile
// and sample count. The closed-loop suites pool their passes for the
// tail; open-loop traffic takes the median of its windows' tails
// (groupTail).
func setLatencies(rep *report, prefix string, groups [][]float64, windowed bool) {
	rep.set(prefix+"_p50", groupMedian(groups))
	t, ok := tailOf(pooled(groups))
	how := "pooled"
	if windowed {
		t, ok = groupTail(groups)
		how = fmt.Sprintf("median over %d windows, each", len(groups))
	}
	rep.set(prefix+"_tail", t.Value)
	rep.note("%s_tail: %s p%s of %d samples", prefix, how, strconv.FormatFloat(t.Pct, 'f', -1, 64), t.N)
	if !ok {
		rep.note("%s_tail: fewer than %d samples, reporting the maximum", prefix, 2*minBeyond)
	}
}

func setQuality(rep *report, t *tally) {
	rep.set("energy_nj", sum(t.energy)/float64(t.energyOps))
	rep.set("deadline_met_share", float64(t.met)/float64(t.deadlines))
	rep.set("ok_share", float64(t.attempted-t.failed)/float64(t.attempted))
}

// setPeakRSS sets peak_rss_mb from the kernel's VmHWM.
func setPeakRSS(rep *report) {
	kb, err := vmHWM()
	if err != nil {
		rep.problem("peak_rss_mb: %v", err)
		return
	}
	rep.set("peak_rss_mb", float64(kb)/1024)
}

func vmHWM() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// clientConns is the number of client goroutines and connections, and
// the server's worker count: one per CPU.
func clientConns() int { return runtime.NumCPU() }
