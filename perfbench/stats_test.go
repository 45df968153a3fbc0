package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := nearestRank(s, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median(3,1,2,4) = %v, want the lower median 2", got)
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
		ok    bool
	}{
		{20, 50, 10, true},
		{21, 52, 11, true},
		{60, 83, 50, true},
		{100, 90, 90, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
		{19, 100, 19, false},
	} {
		// Shuffle the input order: tailOf must sort.
		xs := seq(c.n)
		for i := range xs {
			j := (i * 7) % len(xs)
			xs[i], xs[j] = xs[j], xs[i]
		}
		got, ok := tailOf(xs)
		if got.Pct != c.pct || got.Value != c.value || got.N != c.n || ok != c.ok {
			t.Errorf("n=%d: tail %+v ok=%v, want p%v value %v ok=%v", c.n, got, ok, c.pct, c.value, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: %d samples beyond the tail", c.n, beyond)
			}
		}
	}
}

func TestGroupStatisticsIgnoreOneBadGroup(t *testing.T) {
	groups := [][]float64{seq(40), seq(40), seq(40), seq(40), seq(40)}
	stalled := make([]float64, 40)
	for i := range stalled {
		stalled[i] = 1000
	}
	groups = append(groups, stalled)
	if got := groupMedian(groups); got != 20 {
		t.Errorf("groupMedian = %v, want 20", got)
	}
	tl, ok := groupTail(groups)
	if !ok || tl.Value != 30 || tl.Pct != 75 || tl.N != 40 {
		t.Errorf("groupTail = %+v ok=%v, want p75 of 40 = 30", tl, ok)
	}
	if got := len(pooled(groups)); got != 240 {
		t.Errorf("pooled has %d samples, want 240", got)
	}
}

func TestWindows(t *testing.T) {
	w := windows(seq(250), 100)
	if len(w) != 2 || len(w[0])+len(w[1]) != 250 || w[0][0] != 1 || w[1][len(w[1])-1] != 250 {
		t.Errorf("windows(250, 100): %d windows of %d and %d", len(w), len(w[0]), len(w[1]))
	}
	if w := windows(seq(30), 100); len(w) != 1 || len(w[0]) != 30 {
		t.Errorf("a short sample must stay one window, got %d", len(w))
	}
}

func TestBacklogGrows(t *testing.T) {
	flat := make([]int, 400)
	if backlogGrows(flat, 2) {
		t.Error("an empty backlog grows")
	}
	spike := make([]int, 400)
	for i := 350; i < 360; i++ {
		spike[i] = 40 // one late stall
	}
	if backlogGrows(spike, 2) {
		t.Error("a single stall counts as growth")
	}
	growing := make([]int, 400)
	for i := range growing {
		growing[i] = i / 20
	}
	if !backlogGrows(growing, 2) {
		t.Error("a steadily growing backlog is not detected")
	}
}

// synthRung builds a rung whose latencies are base ms, with every
// fifth request taking slow ms, so each 100-request window's p90 is
// slow.
func synthRung(rate, base, slow float64, failed int, backlog func(i int) int) rung {
	r := rung{Rate: rate, Achieved: rate * 0.999, Failed: failed}
	for i := 0; i < 1000; i++ {
		l := base
		if i%5 == 4 {
			l = slow
		}
		if i < failed {
			l = math.Inf(1)
		}
		r.Latencies = append(r.Latencies, l)
		r.Backlog = append(r.Backlog, backlog(i))
	}
	return r
}

func TestMeetsSLO(t *testing.T) {
	none := func(int) int { return 0 }
	grow := func(i int) int { return i / 10 }
	for _, c := range []struct {
		name string
		r    rung
		want bool
	}{
		{"fast", synthRung(100, 2, 6, 0, none), true},
		{"tail at the limit", synthRung(200, 3, 25, 0, none), true},
		{"tail over the limit", synthRung(300, 3, 26, 0, none), false},
		{"failed request", synthRung(300, 3, 6, 1, none), false},
		{"growing backlog", synthRung(300, 3, 6, 0, grow), false},
		{"no requests", rung{Rate: 300}, false},
	} {
		if got := c.r.meetsSLO(25); got != c.want {
			t.Errorf("%s: meetsSLO = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestHighestRungAtSLO(t *testing.T) {
	rates := []float64{300, 312, 324, 337, 351, 365, 380, 395, 411, 427}
	for _, c := range []struct {
		name     string
		capacity float64 // the rate the synthetic server sustains back to back
		limit    float64 // rungs above this rate miss the objective
		want     float64 // 0 for none
		tried    []int
	}{
		{"top rung at capacity holds", 370, 370, 365, []int{5}},
		{"capacity on a rung", 337, 400, 337, []int{3}},
		{"rung by rung near the capacity", 400, 365, 365, []int{7, 6, 5}},
		{"growing steps further down skip rungs", 427, 340, 324, []int{9, 8, 7, 5, 2}},
		{"capacity above the ladder", 1000, 1000, 427, []int{9}},
		{"capacity below the ladder", 100, 1000, 0, nil},
		{"no rung meets the objective", 427, 200, 0, []int{9, 8, 7, 5, 2}},
	} {
		var tried []int
		got, ok := highestRungAtSLO(rates, c.capacity, []int{0, 1, 2, 4, 7, 11}, func(k int) (float64, bool) {
			tried = append(tried, k)
			return rates[k], rates[k] <= c.limit
		})
		if ok != (c.want > 0) || got != c.want || fmt.Sprint(tried) != fmt.Sprint(c.tried) {
			t.Errorf("%s: got %v ok=%v after trying %v, want %v after %v", c.name, got, ok, tried, c.want, c.tried)
		}
	}
}

func TestJudgeRung(t *testing.T) {
	none := func(int) int { return 0 }
	grow := func(i int) int { return i / 10 }
	pass := synthRung(500, 3, 6, 0, none)
	slow := synthRung(500, 3, 40, 0, none)
	behind := synthRung(500, 3, 6, 0, grow)
	behind.Achieved = 450
	for _, c := range []struct {
		name   string
		probes []rung
		rate   float64
		ok     bool
	}{
		{"all meet", []rung{pass, pass, pass}, 499.5, true},
		{"most meet", []rung{pass, behind, pass, slow, pass}, 499.5, true},
		{"half is not most", []rung{pass, slow, behind, pass}, 499.5, false},
		{"most miss", []rung{slow, behind, pass}, 499.5, false},
	} {
		rate, ok := judgeRung(c.probes, 25)
		if ok != c.ok || math.Abs(rate-c.rate) > 1e-9 {
			t.Errorf("%s: got %v ok=%v, want %v ok=%v", c.name, rate, ok, c.rate, c.ok)
		}
	}
}

func TestPhaseCapacity(t *testing.T) {
	// 900 requests completing every 2 ms, except for a 300 ms stall in
	// the second third: the median third still reads 500/s.
	ph := &phase{reqs: make([]sent, 900)}
	at := time.Duration(0)
	for i := range ph.reqs {
		at += 2 * time.Millisecond
		if i == 450 {
			at += 300 * time.Millisecond
		}
		ph.reqs[len(ph.reqs)-1-i].done = at // completion order need not be send order
	}
	if got := ph.capacity(); math.Abs(got-500) > 1e-6 {
		t.Errorf("capacity = %v, want 500", got)
	}
}

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range endToEnd {
		if !validMetricName(m.name) || seen[m.name] {
			t.Errorf("end-to-end metric %q invalid or repeated", m.name)
		}
		seen[m.name] = true
	}
	for _, m := range perLayer {
		if !validMetricName(m.name) || seen[m.name] {
			t.Errorf("per-layer metric %q invalid or repeated", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "x/y", "ms:p50", "é", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
	for _, good := range []string{"a", "9x", "eas.level_us_per_probe", "acg.build_ms.4x4", "a-b", strings.Repeat("a", 64)} {
		if !validMetricName(good) {
			t.Errorf("validMetricName(%q) = false", good)
		}
	}
}
