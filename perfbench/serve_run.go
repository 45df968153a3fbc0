package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
)

// The serve-mixed rates. The host sustains 600–1100 requests/s,
// depending on its state; the nominal rate is well below that, because
// at 300/s queueing turned the host's slow minutes into tail latency
// (the tail moved up to 40 % while the median moved 15 %). The ladder
// climbs from 300/s to about 2400/s in steps of 4 %, so the answer
// follows the capacity in steps much finer than a 25 % change.
var (
	nominalRate = 200.0
	ladderRates = func() []float64 {
		var rs []float64
		for r := 300.0; r < 2500; r *= 1.04 {
			rs = append(rs, math.Round(r))
		}
		return rs
	}()
)

// saturationRate is the send rate of the capacity phase: far above any
// rung, so the client connections send back to back.
const saturationRate = 1e6

// ladderOffsets are the rungs below the highest at or below the
// measured capacity that a search tries, in order: rung by rung near
// the capacity, then in growing steps, down to about half of it. In a
// slow spell of the host the capacity measured a moment earlier can be
// far above what the server then sustains; the growing steps still find
// a rung that meets the objective within a few tries. rungProbes is how
// many short probes judge each rung. A run makes ladderSearches
// searches, each with its own capacity measurement, and reports their
// median: the capacity of the two connections moves by a tenth or more
// from one search to the next within a run.
var ladderOffsets = []int{0, 1, 2, 4, 7, 11, 16}

const (
	rungProbes     = 5
	ladderSearches = 3
)

// serveSetupReps is how many times a serve-mixed run sets up.
const serveSetupReps = 3

// serveWindows is how many windows the nominal phase's cold solves are
// cut into (about 60 solves each).
const serveWindows = 4

// servePlan sizes a run: half its seconds at the nominal rate, 60
// requests per second of run length back to back for each capacity
// measurement (1500 in a 25-second run, about 2 s), and 15 per second of
// run length on each probe of a rung (375: three latency windows, about
// 0.5 s).
func servePlan(seconds float64) (nominalN, satN, probeN int) {
	nominalN = int(nominalRate * 0.5 * seconds)
	satN = max(4*latencyWindow, int(60*seconds))
	probeN = max(latencyWindow, int(15*seconds))
	return nominalN, satN, probeN
}

// checkAll re-checks, after the timed phases, every fresh answer and
// the hot set's first answers (checkAnswer), in parallel over the
// client connections. A failed fresh check marks its request failed; a
// hot digest whose first answer fails its check has a nil entry in hot.
func (st *serveSetup) checkAll(phases []*phase, rec *recorder) (hot []*answer, fresh map[*serveReq]*answer, problems []string) {
	type job struct {
		r    *serveReq
		body []byte
		out  *sent
	}
	var jobs []job
	for i, r := range st.hot {
		jobs = append(jobs, job{r: r, body: st.primed[i]})
	}
	for _, ph := range phases {
		for i := range ph.reqs {
			if s := &ph.reqs[i]; s.ok && s.req.hot < 0 {
				jobs = append(jobs, job{r: s.req, body: s.body, out: s})
			}
		}
	}
	answers := make([]*answer, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for c := 0; c < st.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(jobs); i += st.conns {
				answers[i], errs[i] = st.checkAnswer(jobs[i].r, jobs[i].body, rec, serveCheckBase+int64(i))
			}
		}(c)
	}
	wg.Wait()
	hot = make([]*answer, len(st.hot))
	fresh = make(map[*serveReq]*answer)
	for i, j := range jobs {
		if errs[i] != nil {
			problems = append(problems, j.r.g.Name+": "+errs[i].Error())
			if j.out != nil {
				j.out.ok = false
				j.out.failure = errs[i].Error()
				j.out.latMS = math.Inf(1)
			}
			continue
		}
		if j.out == nil {
			hot[j.r.hot] = answers[i]
		} else {
			fresh[j.r] = answers[i]
		}
	}
	return hot, fresh, problems
}

func runServeMixed(o options) (*report, error) {
	nominalN, satN, probeN := servePlan(o.seconds)
	st, setupS, err := timedSetups(serveSetupReps,
		func() (*serveSetup, error) { return setupServe(o.seed, nominalN, nil) },
		func(st *serveSetup) { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep := newReport("serve-mixed")
	rep.set("setup_s", setupS)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	nominal := st.openLoop(st.stream, nominalRate, nil, 0)
	runtime.ReadMemStats(&m1)
	// Peak memory is read before the capacity phase and the ladder:
	// their rates, and so how fast they allocate, depend on the host.
	setPeakRSS(rep)

	// The nominal phase is the ladder's lowest rung. No rung above the
	// rate the server sustains back to back can keep the backlog from
	// growing, so a search tries the ladder downwards from the highest
	// rung at or below that capacity, and the first rung that meets the
	// objective is its answer. The capacity is the median over the thirds
	// of a two-second phase: the shared host's speed swings by a third
	// over fractions of a second. Each phase's requests are generated
	// just before it, outside its timing.
	phases := []*phase{nominal}
	base := nominal.rung()
	if !base.meetsSLO(sloMS) {
		rep.problem("the nominal rate misses the objective")
	}
	pos := nominalN
	send := func(n int, rate float64) (*phase, error) {
		reqs, err := st.gen.next(n)
		if err != nil {
			return nil, err
		}
		ph := st.openLoop(reqs, rate, nil, int64(pos))
		pos += n
		phases = append(phases, ph)
		return ph, nil
	}
	var probes []rung
	var capacities, found []float64
	for range ladderSearches {
		sat, err := send(satN, saturationRate)
		if err != nil {
			return nil, err
		}
		capacities = append(capacities, sat.capacity())
		rate, ok := highestRungAtSLO(ladderRates, capacities[len(capacities)-1], ladderOffsets, func(k int) (float64, bool) {
			first := len(probes)
			for range rungProbes {
				ph, e := send(probeN, ladderRates[k])
				if e != nil {
					err = e
					return 0, true
				}
				probes = append(probes, ph.rung())
			}
			return judgeRung(probes[first:], sloMS)
		})
		if err != nil {
			return nil, err
		}
		if !ok {
			rate = base.Achieved
			rep.note("a search found no rung that met the objective and read the nominal rate")
		}
		found = append(found, rate)
	}
	hot, fresh, problems := st.checkAll(phases, nil)
	if len(problems) > 0 {
		rep.problem("first failed answer check: %s", problems[0])
	}

	// The nominal phase is cut into windows of consecutive requests:
	// latencyWindow requests for request latency, serveWindows equal
	// windows for the cold solves. Medians, tails and rates are taken
	// per window, like the closed-loop suites' per-pass figures.
	var t tally
	var latMS, lateMS []float64
	t.solveMS = make([][]float64, serveWindows)
	solveUS := make([]int64, serveWindows)
	for _, ph := range phases {
		for i := range ph.reqs {
			s := &ph.reqs[i]
			t.attempted++
			a := fresh[s.req]
			if s.req.hot >= 0 {
				a = hot[s.req.hot]
			}
			switch {
			case !s.ok:
				t.fail(s.failure)
			case a == nil:
				t.fail(s.req.g.Name + ": its digest's first answer failed its checks")
				s.latMS = math.Inf(1)
			}
			if ph != nominal {
				continue
			}
			w := i * serveWindows / len(ph.reqs)
			latMS = append(latMS, s.latMS)
			lateMS = append(lateMS, s.lateMS)
			if !s.ok || a == nil {
				continue
			}
			if s.req.hot < 0 {
				solveUS[w] += a.resp.SolveUS
				t.solveMS[w] = append(t.solveMS[w], float64(a.resp.SolveUS)/1e3)
			}
			t.account(i, a.s, countDeadlines(s.req))
		}
	}
	t.opMS = windows(latMS, latencyWindow)
	for w := range solveUS {
		t.rate = append(t.rate, float64(len(t.solveMS[w]))/(float64(solveUS[w])/1e6))
	}
	rep.attempted, rep.failed = t.attempted, t.failed
	if t.firstFailure != "" {
		rep.problem("first failure: %s", t.firstFailure)
	}
	rep.set("solves_per_s", median(t.rate))
	setLatencies(rep, "solve_ms", t.solveMS, true)
	setLatencies(rep, "req_ms", t.opMS, true)
	rep.set("max_rps_at_slo", median(found))
	rep.note("ladder searches: capacity back to back %.1f/s over %d requests each, highest rung at the objective %.1f/s",
		capacities, satN, found)
	for _, r := range probes {
		tl := r.tail()
		rep.note("probe %4.0f/s: achieved %7.1f/s, tail p%s %.2f ms, failed %d, backlog grows %v",
			r.Rate, r.Achieved, strconv.FormatFloat(tl.Pct, 'f', -1, 64), tl.Value, r.Failed, r.backlogGrows(sloMS))
	}
	setQuality(rep, &t)
	rep.set("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(len(nominal.reqs)))
	late, _ := groupTail(windows(lateMS, latencyWindow))
	rep.note("serve-mixed: %d requests at %.0f/s nominal, %d fresh, loadgen late tail %.2f ms, %d connections",
		len(nominal.reqs), nominalRate, len(pooled(t.solveMS)), late.Value, st.conns)
	if late.Value >= lateLimitMS {
		rep.problem("guard: loadgen late tail %.2f ms at the nominal rate, limit %.0f ms", late.Value, lateLimitMS)
	}
	return rep, nil
}

func countDeadlines(r *serveReq) int { return newInstance(r.g, nil).deadlines }

// rung summarizes a ladder phase.
func (ph *phase) rung() rung {
	r := rung{Rate: ph.rate}
	done := 0
	for i := range ph.reqs {
		s := &ph.reqs[i]
		r.Latencies = append(r.Latencies, s.latMS)
		r.Backlog = append(r.Backlog, s.backlog)
		if s.ok {
			done++
		} else {
			r.Failed++
		}
	}
	r.Achieved = float64(done) / ph.wall.Seconds()
	return r
}

// capacity is the rate a back-to-back phase completed requests at: the
// median over its three thirds, in completion order, of requests per
// second. A third lasts long enough (about 0.7 s) to carry its share of
// the host's stalls, so the capacity is a rate the server sustains, not
// its rate between stalls; the median leaves out one third that a long
// stall fell in.
func (ph *phase) capacity() float64 {
	done := make([]float64, len(ph.reqs))
	for i := range ph.reqs {
		done[i] = ph.reqs[i].done.Seconds()
	}
	sort.Float64s(done)
	var rates []float64
	for w, prev := 1, 0.0; w <= 3; w++ {
		end := done[w*len(done)/3-1]
		rates = append(rates, float64(len(done)/3)/(end-prev))
		prev = end
	}
	return median(rates)
}
