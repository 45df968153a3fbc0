package main

import (
	"testing"

	"nocsched/internal/telemetry"
)

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to 100
		{ID: 6, Parent: 3, Name: "grandchild", Start: 25, End: 35},
		{ID: 7, Name: "other root", Start: 0, End: 5},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (40 + 10 + 10), // union [10,50] + [60,70] + [90,100]
		2: 20,
		3: 30 - 10,
		4: 10,
		5: 30,
		6: 10,
		7: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
}

func TestPhaseSinkFilesStepsUnderPasses(t *testing.T) {
	rec := newRecorder()
	_, sink := newPhaseCollector(rec)
	id, end := rec.begin("eas.Schedule", 0, 7)
	sink.within(id, 7)
	// The scheduler emits spans when they end: both steps of pass 0,
	// then the pass, then the fallback.
	sink.Emit(&telemetry.Event{Name: "step1:budget", Kind: 'X', Ts: 1, Dur: 2})
	sink.Emit(&telemetry.Event{Name: "step2:level-schedule", Kind: 'X', Ts: 3, Dur: 5})
	sink.Emit(&telemetry.Event{Name: "pass 0 (scale=1 bw=0)", Kind: 'X', Ts: 0, Dur: 9})
	sink.Emit(&telemetry.Event{Name: "fallback:deadline-first+refine", Kind: 'X', Ts: 10, Dur: 4})
	sink.Emit(&telemetry.Event{Name: "marker", Kind: 'I', Ts: 11})
	end()

	spans := rec.snapshot()
	byName := make(map[string]span)
	for _, s := range spans {
		byName[spanKey(s.Name)] = s
	}
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5 (instants are dropped)", len(spans))
	}
	pass := byName["eas.pass"]
	for _, step := range []string{"eas.step1", "eas.step2"} {
		if s := byName[step]; s.Parent != pass.ID || s.Req != 7 {
			t.Errorf("%s: parent %d req %d, want pass %d req 7", step, s.Parent, s.Req, pass.ID)
		}
	}
	if pass.Parent != id || byName["eas.fallback"].Parent != id {
		t.Errorf("pass and fallback must be children of the solver span %d", id)
	}
	if got := byName["eas.step2"].End - byName["eas.step2"].Start; got != 5000 {
		t.Errorf("step2 lasts %d ns, want 5000 (the tracer counts µs)", got)
	}
	self := selfTimes(spans)
	if got := self[pass.ID]; got != 9000-7000 {
		t.Errorf("pass self time %d ns, want 2000", got)
	}
}
