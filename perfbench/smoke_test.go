package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"nocsched/internal/telemetry"
)

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	if raceEnabled {
		t.Skip("the race detector's slowdown breaks serve-mixed's rate objective; TestOpenLoopChecksEveryAnswer covers its concurrency")
	}
	var log bytes.Buffer
	if err := smokeAll(1, t.TempDir(), &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
}

// TestOpenLoopChecksEveryAnswer drives the open-loop client and the
// answer checks at a low rate, so the race detector sees the client
// goroutines, the server and the parallel checks together.
func TestOpenLoopChecksEveryAnswer(t *testing.T) {
	st, err := setupServe(1, 48, telemetry.NewCollector(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	rec := newRecorder()
	ph := st.openLoop(st.stream, 40, rec, serveReqBase)
	hot, fresh, problems := st.checkAll([]*phase{ph}, rec)
	if len(problems) > 0 {
		t.Fatal(problems)
	}
	misses := 0
	for i := range ph.reqs {
		s := &ph.reqs[i]
		if !s.ok {
			t.Fatalf("request %d: %s", i, s.failure)
		}
		if s.req.hot < 0 {
			misses++
			if fresh[s.req] == nil {
				t.Errorf("request %d: fresh answer not checked", i)
			}
		} else if hot[s.req.hot] == nil {
			t.Errorf("request %d: hot answer not checked", i)
		}
	}
	if misses != 48/freshEvery {
		t.Errorf("%d fresh requests in 48, want %d", misses, 48/freshEvery)
	}
	if n := len(rec.snapshot()); n < len(ph.reqs) {
		t.Errorf("%d spans for %d requests", n, len(ph.reqs))
	}
}

func TestParseReportChecksSchema(t *testing.T) {
	rep := newReport("x")
	rep.attempted = 3
	for _, m := range endToEnd {
		rep.set(m.name, 1.5)
	}
	var buf bytes.Buffer
	if err := rep.write(&buf, false); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	j, err := parseReport(good, false)
	if err != nil || !j.Correct || j.Attempted != 3 {
		t.Fatalf("a complete report: %+v, %v", j, err)
	}
	if _, err := parseReport(good, true); err == nil {
		t.Error("an end-to-end report passes as a per-layer one")
	}
	last := good[strings.LastIndex(strings.TrimRight(good, "\n"), "\n")+1:]
	for name, edit := range map[string]func(map[string]any){
		"extra key":   func(m map[string]any) { m["notes"] = 1 },
		"missing key": func(m map[string]any) { delete(m, "failed") },
		"wrong unit": func(m map[string]any) {
			m["metrics"].(map[string]any)["setup_s"] = map[string]any{"value": 1, "unit": "ms"}
		},
		"extra metric": func(m map[string]any) { m["metrics"].(map[string]any)["x"] = map[string]any{"value": 1, "unit": "s"} },
		"lost metric":  func(m map[string]any) { delete(m["metrics"].(map[string]any), "ok_share") },
		"no attempts":  func(m map[string]any) { m["attempted"] = 0 },
	} {
		var m map[string]any
		if err := json.Unmarshal([]byte(last), &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		b, _ := json.Marshal(m)
		if _, err := parseReport(string(b), false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	missing := newReport("x")
	missing.attempted = 1
	if j := missing.finish(false); j.Correct {
		t.Error("a report without its metrics is marked correct")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Error("trailing data after the BENCHMARK.json object")
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q", i, w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, tables %d/%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for i, m := range b.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, want)
		}
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound != maxBound {
		t.Error("setup_s must be listed with the largest bound")
	}
}
