package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/sched"
	"nocsched/internal/verify"
)

// solveOut is one solver call's outcome.
type solveOut struct {
	s      *sched.Schedule
	repair eas.RepairStats
	probes int64
}

// solve runs the suite's scheduler on one instance.
func solve(algo string, in instance, opts eas.Options) (solveOut, error) {
	if algo == "dls" {
		s, err := dls.Schedule(in.g, in.acg)
		return solveOut{s: s}, err
	}
	r, err := eas.Schedule(in.g, in.acg, opts)
	if err != nil {
		return solveOut{}, err
	}
	return solveOut{s: r.Schedule, repair: r.RepairStats, probes: r.Probes}, nil
}

// checkSchedule applies the per-schedule correctness checks: the
// conformance oracle finds nothing but deadline misses, its deadline
// findings agree with the schedule's own miss count, and, when ref is
// given (the instance's first solve, or an in-process reference), the
// schedule is bit-identical to it (sched.Diff). It returns "" when the
// schedule passes.
func checkSchedule(s *sched.Schedule, ref *sched.Schedule, rec *recorder, req int64) string {
	_, end := rec.begin("verify.Check", 0, req)
	rep := verify.Check(s)
	end()
	deadline := len(rep.ByClass(verify.ClassDeadline))
	if len(rep.Findings) != deadline {
		return fmt.Sprintf("%d structural findings", len(rep.Findings)-deadline)
	}
	if deadline != len(s.DeadlineMisses()) {
		return fmt.Sprintf("oracle reports %d deadline misses, schedule %d", deadline, len(s.DeadlineMisses()))
	}
	if ref != nil {
		if d := sched.Diff(ref, s); d != "" {
			return "not bit-identical to the first solve: " + d
		}
	}
	return ""
}

// tally accumulates the per-operation results every workload reports.
type tally struct {
	// solveMS and opMS hold one group of samples per pass (or window).
	solveMS, opMS [][]float64
	// rate and opRate are each group's solves per second of solver
	// time and operations per second of wall time.
	rate, opRate   []float64
	energy         []float64 // per instance, summed in index order at the end
	energyOps      int
	met, deadlines int
	attempted      int
	failed         int
	repairRuns     int
	firstFailure   string
}

func (t *tally) fail(what string) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = what
	}
}

// account adds one successful schedule of instance i's quality figures.
// Energy is kept per instance so its mean does not depend on the order
// the instances ran in.
func (t *tally) account(i int, s *sched.Schedule, deadlines int) {
	for len(t.energy) <= i {
		t.energy = append(t.energy, 0)
	}
	t.energy[i] += s.TotalEnergy()
	t.energyOps++
	t.deadlines += deadlines
	t.met += deadlines - len(s.DeadlineMisses())
}

// solverRun is the measured outcome of a closed-loop suite run.
type solverRun struct {
	tally
	passWall   []float64 // seconds per pass
	allocBytes uint64
}

// runSolverSuite drives one client in a closed loop over whole passes
// of the suite, each pass in a fresh seeded order.
func runSolverSuite(algo string, insts []instance, passes int, seed int64) *solverRun {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]*sched.Schedule, len(insts))
	run := &solverRun{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for p := 0; p < passes; p++ {
		passStart := time.Now()
		var solveMS, opMS []float64
		var solveTime time.Duration
		for _, i := range rng.Perm(len(insts)) {
			in := insts[i]
			run.attempted++
			t0 := time.Now()
			out, err := solve(algo, in, eas.Options{})
			t1 := time.Now()
			if err != nil {
				run.fail(fmt.Sprintf("%s: %v", in.name, err))
				continue
			}
			if msg := checkSchedule(out.s, refs[i], nil, 0); msg != "" {
				run.fail(in.name + ": " + msg)
				continue
			}
			t2 := time.Now()
			if refs[i] == nil {
				refs[i] = out.s
			}
			if out.repair.Ran {
				run.repairRuns++
			}
			solveTime += t1.Sub(t0)
			solveMS = append(solveMS, ms(t1.Sub(t0)))
			opMS = append(opMS, ms(t2.Sub(t0)))
			run.account(i, out.s, in.deadlines)
		}
		wall := time.Since(passStart)
		run.passWall = append(run.passWall, wall.Seconds())
		run.solveMS = append(run.solveMS, solveMS)
		run.opMS = append(run.opMS, opMS)
		run.rate = append(run.rate, float64(len(solveMS))/solveTime.Seconds())
		run.opRate = append(run.opRate, float64(len(opMS))/wall.Seconds())
	}
	runtime.ReadMemStats(&m1)
	run.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return run
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
