package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"nocsched/internal/telemetry"
)

// span is one recorded call. Times are nanoseconds since the
// recorder's epoch. Parent is 0 for a root span; spans caused by one
// request or solve share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id and the function that closes
// it. On a nil recorder both are no-ops.
func (r *recorder) begin(name string, parent, req int64) (int64, func()) {
	if r == nil {
		return 0, func() {}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	start := r.now()
	return id, func() { r.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: r.now()}) }
}

// add appends a finished span, assigning an id when it has none.
func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span as one JSON line to path, creating its
// directory.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseSink is the in-memory telemetry.Sink handed to eas.Schedule
// through eas.Options.Telemetry. It files the scheduler's own pass,
// step and fallback spans as children of the benchmark span that is
// open around the eas.Schedule call: each step becomes a child of the
// pass that encloses it, passes and the fallback children of the call.
// Solves run one at a time, so one current parent suffices.
type phaseSink struct {
	rec     *recorder
	epoch   int64 // tracer epoch in recorder nanoseconds
	parent  int64
	req     int64
	pending []int64 // step spans awaiting their enclosing pass
}

// newPhaseCollector returns a collector whose tracer feeds a phaseSink
// aligned with rec's clock.
func newPhaseCollector(rec *recorder) (*telemetry.Collector, *phaseSink) {
	s := &phaseSink{rec: rec}
	s.epoch = rec.now()
	return telemetry.NewCollector(s), s
}

// within sets the benchmark span subsequent events belong to.
func (s *phaseSink) within(parent, req int64) {
	s.parent, s.req, s.pending = parent, req, s.pending[:0]
}

func (s *phaseSink) Emit(e *telemetry.Event) {
	if e.Kind != 'X' {
		return
	}
	start := s.epoch + e.Ts*1000
	sp := span{Parent: s.parent, Req: s.req, Name: "eas." + e.Name, Start: start, End: start + e.Dur*1000}
	id := s.rec.add(sp)
	switch {
	case strings.HasPrefix(e.Name, "step"):
		s.pending = append(s.pending, id)
	case strings.HasPrefix(e.Name, "pass "):
		// The pending steps are among the most recent spans.
		s.rec.mu.Lock()
		for i, left := len(s.rec.spans)-1, len(s.pending); i >= 0 && left > 0; i-- {
			for _, p := range s.pending {
				if s.rec.spans[i].ID == p {
					s.rec.spans[i].Parent = id
					left--
				}
			}
		}
		s.rec.mu.Unlock()
		s.pending = s.pending[:0]
	}
}

func (s *phaseSink) Err() error   { return nil }
func (s *phaseSink) Close() error { return nil }

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by its children (the union of
// the child intervals, clipped to the parent, so overlapping children
// are not subtracted twice).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curS, curE int64
		open := false
		for _, k := range kids {
			ks, ke := max(k.Start, p.Start), min(k.End, p.End)
			if ke <= ks {
				continue
			}
			switch {
			case !open:
				curS, curE, open = ks, ke, true
			case ks <= curE:
				curE = max(curE, ke)
			default:
				covered += curE - curS
				curS, curE = ks, ke
			}
		}
		if open {
			covered += curE - curS
		}
		self[p.ID] = (p.End - p.Start) - covered
	}
	return self
}

// selfByKey returns the spans' self times in milliseconds, grouped by
// spanKey of their names. Children outside spans do not count against
// their parents.
func selfByKey(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for _, s := range spans {
		k := spanKey(s.Name)
		out[k] = append(out[k], float64(self[s.ID])/1e6)
	}
	return out
}

// spanKey groups span names: the scheduler's phase spans by phase
// ("eas.pass", "eas.step3", "eas.fallback"), others by full name.
func spanKey(name string) string {
	if rest, ok := strings.CutPrefix(name, "eas."); ok {
		if i := strings.IndexAny(rest, " :"); i >= 0 {
			return name[:4+i]
		}
	}
	return name
}
