package main

import (
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail rank.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample: the value at 1-based rank ceil(q*n). It is always
// one of the samples, never an interpolation.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// tailPercentiles are the candidate tail percentiles in basis points
// (hundredths of a percent), highest first: p99.99, p99.9, p99 ... p50.
var tailPercentiles = func() []int {
	ps := []int{9999, 9990}
	for p := 99; p >= 50; p-- {
		ps = append(ps, p*100)
	}
	return ps
}()

// tail is a reported tail quantile with the percentile it sits at and
// the sample count it was taken from.
type tail struct {
	Value float64
	Pct   float64
	N     int
}

// tailOf returns the highest candidate percentile whose nearest rank
// leaves at least minBeyond samples above it. ok is false when the
// sample is too small for any candidate (fewer than 2*minBeyond
// samples); the returned tail is then the sample maximum.
func tailOf(xs []float64) (t tail, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	t.N = n
	if n == 0 {
		return t, false
	}
	for _, bp := range tailPercentiles {
		r := (bp*n + 9999) / 10000 // ceil(bp/10000 * n), exactly
		if n-r >= minBeyond {
			t.Value, t.Pct = s[r-1], float64(bp)/100
			return t, true
		}
	}
	t.Value, t.Pct = s[n-1], 100
	return t, false
}

// median returns the nearest-rank median of xs.
func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.5) }

// groupMedian returns the median over groups of each group's median.
// A group is one pass over a suite, or one window of open-loop
// traffic; one slow group moves it no more than one sample would.
func groupMedian(groups [][]float64) float64 {
	var ms []float64
	for _, g := range groups {
		if len(g) > 0 {
			ms = append(ms, median(g))
		}
	}
	return median(ms)
}

// groupTail returns the median over groups of each group's tail (see
// tailOf), with the percentile and size of the smallest group. Open-loop
// traffic on a shared host sees whole-machine stalls now and then; one
// stall decides a pooled tail but moves a median of window tails by at
// most one window.
func groupTail(groups [][]float64) (tail, bool) {
	var ts []float64
	t := tail{Pct: 100, N: math.MaxInt}
	ok := true
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		gt, gok := tailOf(g)
		ts = append(ts, gt.Value)
		ok = ok && gok
		if gt.N < t.N {
			t.N, t.Pct = gt.N, gt.Pct
		}
	}
	t.Value = median(ts)
	return t, ok && len(ts) > 0
}

// windows cuts xs into groups of consecutive samples, as many as fit
// with at least size samples each (at least one group).
func windows(xs []float64, size int) [][]float64 {
	n := max(1, len(xs)/size)
	out := make([][]float64, n)
	for i, x := range xs {
		w := i * n / len(xs)
		out[w] = append(out[w], x)
	}
	return out
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// pooled concatenates groups.
func pooled(groups [][]float64) []float64 {
	var all []float64
	for _, g := range groups {
		all = append(all, g...)
	}
	return all
}

// rung is one step of the open-loop rate ladder.
type rung struct {
	// Rate is the nominal send rate (requests/s).
	Rate float64
	// Latencies are per-request times in ms, measured from when each
	// request was due; a failed request is recorded as +Inf.
	Latencies []float64
	// Failed counts requests that failed or were refused.
	Failed int
	// Backlog is the sender's backlog (requests due but not yet sent)
	// observed at each send, in send order.
	Backlog []int
	// Achieved is completed requests per second of the rung's wall time.
	Achieved float64
}

// backlogGrows reports whether the sender fell steadily behind: the
// median backlog over the last quarter of sends exceeds the median over
// the first quarter by more than allowed requests. A single stall
// raises a few samples and moves neither median.
func backlogGrows(backlog []int, allowed float64) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	med := func(xs []int) float64 {
		f := make([]float64, len(xs))
		for i, x := range xs {
			f[i] = float64(x)
		}
		return median(f)
	}
	return med(backlog[len(backlog)-q:]) > med(backlog[:q])+allowed
}

// latencyWindow is the number of consecutive open-loop requests per
// tail window: each window's tail is then its p90, which at the 1-in-8
// fresh share lands on the cold-solve requests.
const latencyWindow = 100

// tail is the rung's latency tail: the median of its windows' tails.
func (r *rung) tail() tail {
	t, _ := groupTail(windows(r.Latencies, latencyWindow))
	return t
}

// meetsSLO reports whether a rung holds all three conditions of the
// service-level objective: its tail latency is within limitMS, every
// request succeeded, and the backlog did not grow — by more than the
// requests due in half the latency limit, a lag the objective would
// still absorb.
func (r *rung) meetsSLO(limitMS float64) bool {
	if r.Failed > 0 || len(r.Latencies) == 0 {
		return false
	}
	return r.tail().Value <= limitMS && !r.backlogGrows(limitMS)
}

// backlogGrows reports whether the rung's backlog grew by more than the
// requests due in half of limitMS.
func (r *rung) backlogGrows(limitMS float64) bool {
	return backlogGrows(r.Backlog, r.Rate*limitMS/2/1e3)
}

// highestRungAtSLO walks an ascending rate ladder downwards from the
// highest rung at or below capacity and returns the achieved rate of the
// first rung it tries that meets the objective. It tries the rungs
// offsets below that top rung, in order. A rung above the capacity
// cannot keep the backlog from growing, so none is tried. try runs rung
// k and judges it (see judgeRung); ok is false when no rung tried meets
// the objective.
func highestRungAtSLO(rates []float64, capacity float64, offsets []int, try func(k int) (float64, bool)) (rate float64, ok bool) {
	top := sort.SearchFloat64s(rates, math.Nextafter(capacity, math.Inf(1))) - 1
	for _, off := range offsets {
		if top-off < 0 {
			break
		}
		if rate, ok := try(top - off); ok {
			return rate, true
		}
	}
	return 0, false
}

// judgeRung judges a rung from several short probes at its rate: it
// meets the objective when most of them do, at the median of their
// achieved rates. The shared host stalls now and then for tens of
// milliseconds; near the capacity a stall leaves a backlog that one
// probe cannot drain, but it sinks only the probe it falls in.
func judgeRung(probes []rung, limitMS float64) (rate float64, ok bool) {
	var achieved []float64
	met := 0
	for i := range probes {
		achieved = append(achieved, probes[i].Achieved)
		if probes[i].meetsSLO(limitMS) {
			met++
		}
	}
	return median(achieved), 2*met > len(probes)
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a valid report metric name:
// it starts with a letter or digit and has at most 64 letters, digits,
// '_', '.' and '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }
