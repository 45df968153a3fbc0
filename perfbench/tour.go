package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"nocsched/internal/batch"
	"nocsched/internal/ctg"
	"nocsched/internal/eas"
	"nocsched/internal/sched"
	"nocsched/internal/serve"
	"nocsched/internal/telemetry"
)

// acgBuilds is how many times the tour builds each mesh's ACG.
const acgBuilds = 5

// serveReqBase numbers the tour's serve requests apart from its
// solves, and serveCheckBase the answer checks made after the traffic.
const (
	serveReqBase   = 1 << 30
	serveCheckBase = serveReqBase + 1<<24
)

// runTour is the traced run. Whatever the workload argument, it makes
// one traced pass over every workload, so every per-layer metric is
// measured in every traced run and each comes from the workload it
// belongs to: ACG builds, a tight-suite pass, loose-suite passes
// alternating untraced and traced (which give the tracing overhead), a
// dls-suite pass, and serve-mixed traffic at the nominal rate. Spans
// stay in memory and are written to o.spanDir at the end.
func runTour(w workload, o options) (*report, error) {
	rec := newRecorder()
	rep := newReport(w.name)
	rng := rand.New(rand.NewSource(o.seed))
	seq := int64(0)

	for i := 0; i < acgBuilds; i++ {
		if _, err := buildACG(mesh4, rec, "energy.BuildACG.4x4"); err != nil {
			return nil, err
		}
		if _, err := buildACG(mesh6, rec, "energy.BuildACG.6x6"); err != nil {
			return nil, err
		}
	}
	built := selfByKey(rec.snapshot())
	rep.set("acg.build_ms.4x4", median(built["energy.BuildACG.4x4"]))
	rep.set("acg.build_ms.6x6", median(built["energy.BuildACG.6x6"]))

	// tight-suite: Step 3, passes and the runtime's GC.
	tightW, _ := lookupWorkload("tight-suite")
	tight, err := solverInstances(tightW, o)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tp := tracedPass("eas", tight, rec, rng, &seq, rep)
	runtime.ReadMemStats(&m1)
	rep.set("gc.cycles_per_op", float64(m1.NumGC-m0.NumGC)/float64(tp.solves))
	rep.set("gc.pause_ms_per_op", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/float64(tp.solves))

	// loose-suite: Steps 1 and 2, and the tracing overhead.
	looseW, _ := lookupWorkload("loose-suite")
	loose, err := solverInstances(looseW, o)
	if err != nil {
		return nil, err
	}
	var lp passStats
	var untraced, traced time.Duration
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if r := runSolverSuite("eas", loose, 1, rng.Int63()); r.failed > 0 {
			rep.failed += r.failed
			rep.problem("loose-suite untraced pass: %s", r.firstFailure)
		}
		untraced += time.Since(t0)
		t0 = time.Now()
		lp.add(tracedPass("eas", loose, rec, rng, &seq, rep))
		traced += time.Since(t0)
	}
	rep.set("trace.overhead_share", traced.Seconds()/untraced.Seconds()-1)

	// dls-suite.
	dlsW, _ := lookupWorkload("dls-suite")
	dlsInsts, err := solverInstances(dlsW, o)
	if err != nil {
		return nil, err
	}
	dp := tracedPass("dls", dlsInsts, rec, rng, &seq, rep)

	perSolve := func(p passStats, key string) float64 { return sum(p.self[key]) / float64(p.solves) }
	rep.set("eas.budget_ms_per_solve", perSolve(lp, "eas.step1"))
	rep.set("eas.level_ms_per_solve", perSolve(lp, "eas.step2"))
	rep.set("eas.probes_per_solve", float64(lp.probes)/float64(lp.solves))
	rep.set("eas.level_us_per_probe", sum(lp.self["eas.step2"])*1e3/float64(lp.probes))
	rep.set("eas.repair_ms_per_solve", perSolve(tp, "eas.step3"))
	rep.set("eas.repair_moves_per_solve", float64(tp.moves)/float64(tp.solves))
	rep.set("eas.repair_us_per_move", sum(tp.self["eas.step3"])*1e3/float64(max(1, tp.moves)))
	rep.set("eas.repair_runs", float64(len(tp.self["eas.step3"])))
	rep.set("eas.passes_per_solve", float64(len(tp.self["eas.pass"]))/float64(tp.solves))
	rep.set("eas.fallback_runs", float64(len(tp.self["eas.fallback"])))
	rep.set("sched.commits_per_solve", float64(tp.commits+lp.commits)/float64(tp.solves+lp.solves))
	rep.set("sched.rollbacks_per_solve", float64(tp.rollbacks+lp.rollbacks)/float64(tp.solves+lp.solves))
	rep.set("dls.ms_per_solve", perSolve(dp, "dls.Schedule"))
	// The fallback does not run on the paper's suite, so its time is
	// printed here rather than reported as a constant zero.
	rep.note("tour: tight-suite %d solves (fallback %.1f ms in %d runs), loose-suite %d traced solves, dls-suite %d solves",
		tp.solves, sum(tp.self["eas.fallback"]), len(tp.self["eas.fallback"]), lp.solves, dp.solves)
	if len(tp.self["eas.step3"]) == 0 {
		rep.problem("guard: tight-suite ran no search-and-repair")
	}
	if n := len(lp.self["eas.step3"]); n != 0 {
		rep.problem("guard: loose-suite ran search-and-repair %d times", n)
	}

	if err := tourServe(o, rec, rep); err != nil {
		return nil, err
	}
	path := filepath.Join(o.spanDir, fmt.Sprintf("spans-seed%d.jsonl", o.seed))
	if err := rec.writeJSONL(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.note("tour: %d spans written to %s", len(rec.snapshot()), path)
	setPeakRSS(rep)
	return rep, nil
}

// passStats aggregates one or more traced passes.
type passStats struct {
	solves, moves      int
	probes             int64
	commits, rollbacks int64
	self               map[string][]float64 // span self times (ms) by spanKey
}

func (p *passStats) add(q passStats) {
	if p.self == nil {
		p.self = make(map[string][]float64)
	}
	p.solves += q.solves
	p.moves += q.moves
	p.probes += q.probes
	p.commits += q.commits
	p.rollbacks += q.rollbacks
	for k, v := range q.self {
		p.self[k] = append(p.self[k], v...)
	}
}

// tracedPass solves every instance once, in a seeded order, with a
// span around each solver call and each verify.Check, and the
// scheduler's own phase spans filed beneath the solver span.
func tracedPass(algo string, insts []instance, rec *recorder, rng *rand.Rand, seq *int64, rep *report) passStats {
	col, sink := newPhaseCollector(rec)
	name := "eas.Schedule"
	if algo == "dls" {
		name = "dls.Schedule"
	}
	first := len(rec.snapshot())
	var ps passStats
	for _, i := range rng.Perm(len(insts)) {
		in := insts[i]
		*seq++
		rep.attempted++
		id, end := rec.begin(name, 0, *seq)
		sink.within(id, *seq)
		out, err := solve(algo, in, eas.Options{Telemetry: col})
		end()
		if err != nil {
			rep.failed++
			rep.problem("%s: %v", in.name, err)
			continue
		}
		if msg := checkSchedule(out.s, nil, rec, *seq); msg != "" {
			rep.failed++
			rep.problem("%s: %s", in.name, msg)
			continue
		}
		ps.solves++
		ps.moves += out.repair.MovesTried
		ps.probes += out.probes
	}
	ps.commits = col.R().Counter(sched.MetricCommits).Value()
	ps.rollbacks = col.R().Counter(sched.MetricRollbacks).Value()
	ps.self = selfByKey(rec.snapshot()[first:])
	return ps
}

// tourServe runs serve-mixed traffic at the nominal rate against a
// server with telemetry on, then times the client-side layer calls for
// every request of that traffic.
func tourServe(o options, rec *recorder, rep *report) error {
	n := int(nominalRate * 0.15 * o.seconds)
	col := telemetry.NewCollector(nil)
	st, err := setupServe(o.seed, n, col)
	if err != nil {
		return err
	}
	defer st.close()
	before := col.R().Snapshot()
	ph := st.openLoop(st.stream, nominalRate, rec, serveReqBase)
	after := col.R().Snapshot()
	rep.attempted += len(ph.reqs)
	hot, fresh, _ := st.checkAll([]*phase{ph}, rec)

	self := selfTimes(rec.snapshot())
	var hitMS, missMS, overMS, lateMS []float64
	var respBytes int
	backlogMax := 0
	for i := range ph.reqs {
		s := &ph.reqs[i]
		lateMS = append(lateMS, s.lateMS)
		backlogMax = max(backlogMax, s.backlog)
		a := fresh[s.req]
		if s.req.hot >= 0 {
			a = hot[s.req.hot]
		}
		if !s.ok || a == nil {
			rep.failed++
			rep.problem("serve request %d (%s) failed: %s", i, s.req.g.Name, s.failure)
			continue
		}
		d := float64(self[s.httpSpan]) / 1e6
		if s.req.hot >= 0 {
			hitMS = append(hitMS, d)
			respBytes += len(st.primed[s.req.hot])
		} else {
			missMS = append(missMS, d)
			overMS = append(overMS, d-float64(a.resp.SolveUS)/1e3)
		}
	}

	// Client-side layer calls, each under its own span, for every
	// request of the traffic: decode the request's graph, digest it,
	// and encode the response the way the server does. The encode span
	// is a copy of the render at the end of serve's handleSchedule
	// (internal/serve/serve.go) and must be kept in step with it: a
	// change to the server's render path does not move this span.
	for i := range ph.reqs {
		r := ph.reqs[i].req
		req := serveReqBase + int64(i)
		graphJSON, err := json.Marshal(r.g)
		if err != nil {
			return err
		}
		_, end := rec.begin("ctg.ReadJSON", 0, req)
		g, err := ctg.ReadJSON(bytes.NewReader(graphJSON))
		end()
		if err != nil {
			return fmt.Errorf("decode request graph: %w", err)
		}
		_, end = rec.begin("serve.WorkloadDigest", 0, req)
		_, err = serve.WorkloadDigest(serve.AlgoEAS, serve.DefaultPlatform(), g)
		end()
		if err != nil {
			return err
		}
		a := fresh[r]
		if r.hot >= 0 {
			a = hot[r.hot]
		}
		if a == nil {
			continue // its failed check is already reported
		}
		_, end = rec.begin("serve.encode", 0, req)
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		err = enc.Encode(a.resp)
		end()
		if err != nil {
			return err
		}
	}
	var serveSpans []span
	for _, s := range rec.snapshot() {
		if s.Req >= serveReqBase {
			serveSpans = append(serveSpans, s)
		}
	}
	byName := selfByKey(serveSpans)

	counter := func(s telemetry.Snapshot, name string) int64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	hist := func(s telemetry.Snapshot, name string) (count, sum int64) {
		for _, h := range s.Histograms {
			if h.Name == name {
				return h.Count, h.Sum
			}
		}
		return 0, 0
	}
	delta := func(name string) float64 { return float64(counter(after, name) - counter(before, name)) }
	c0, s0 := hist(before, batch.MetricLatency)
	c1, s1 := hist(after, batch.MetricLatency)
	hitsD, missesD := delta(serve.MetricCacheHits), delta(serve.MetricCacheMisses)

	rep.set("ctg.decode_ms_p50", median(byName["ctg.ReadJSON"]))
	rep.set("serve.digest_ms_p50", median(byName["serve.WorkloadDigest"]))
	rep.set("serve.hit_ms_p50", median(hitMS))
	rep.set("serve.encode_ms_p50", median(byName["serve.encode"]))
	rep.set("serve.response_kb", float64(respBytes)/1e3/float64(max(1, len(hitMS))))
	rep.set("serve.miss_ms_p50", median(missMS))
	rep.set("serve.miss_overhead_ms_p50", median(overMS))
	rep.set("serve.hit_ratio", hitsD/(hitsD+missesD))
	rep.set("serve.evictions", delta(serve.MetricCacheEvictions))
	rep.set("serve.rejected_429", delta(serve.MetricRejectedFull))
	rep.set("batch.service_ms_mean", float64(s1-s0)/1e3/float64(max(1, c1-c0)))
	rep.set("batch.instances", delta(batch.MetricInstances))
	rep.set("verify.ms_p50", median(byName["verify.Check"]))
	late, _ := tailOf(lateMS)
	rep.set("loadgen.late_ms_tail", late.Value)
	rep.set("loadgen.backlog_max", float64(backlogMax))
	rep.note("tour: serve-mixed %d requests at %.0f/s (%d hits, %d misses)", len(ph.reqs), nominalRate, len(hitMS), len(missMS))
	return nil
}
