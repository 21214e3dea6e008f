package main

import (
	"math"
	"testing"
	"time"

	"rql/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(100), 0.5, 50},
		{seq(100), 0.9, 90},
		{seq(1000), 0.99, 990},
		{seq(10), 0.99, 10},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 {
		t.Error("percentile reordered its input")
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {0, 0.5, false}, {20, 0.5, true},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.9, 1.1, 1.0, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98}, [3]float64{0.9375, 1.0, 1.0625}},
	} {
		q1, med, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if got := spread([]float64{0.9, 1.1, 1.0, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98}); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("spread = %v, want 0.125", got)
	}
}

func TestScheduleLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newSchedule(t0, 4)
	if got := s.due(2); !got.Equal(t0.Add(500 * time.Millisecond)) {
		t.Fatalf("due(2) = %v", got.Sub(t0))
	}
	if got := s.late(2, t0.Add(600*time.Millisecond)); got != 100*time.Millisecond {
		t.Errorf("late by %v, want 100ms", got)
	}
	if got := s.late(2, t0.Add(400*time.Millisecond)); got != 0 {
		t.Errorf("an early send is %v late, want 0", got)
	}
}

func TestFailedShare(t *testing.T) {
	kinds := map[string]*opCounts{"asof": {attempted: 30}, "retro.io": {attempted: 10, failed: 1}}
	if a, f := tally(kinds); a != 40 || f != 1 {
		t.Errorf("tally = %d attempted, %d failed", a, f)
	}
	if got := failedShare(kinds); got != 1.0/40 {
		t.Errorf("failedShare = %v, want 1/40", got)
	}
	if got := failedShare(map[string]*opCounts{}); got != 0 {
		t.Errorf("failedShare of nothing = %v, want 0", got)
	}
}

func TestRoundRates(t *testing.T) {
	rounds := []mixRound{
		{requests: 4, iters: 12, d: 300 * time.Millisecond},
		{requests: 3, iters: 9, d: 100 * time.Millisecond}, // a request failed
		{requests: 4, iters: 12, d: 200 * time.Millisecond},
		{requests: 2, iters: 6, d: 50 * time.Millisecond}, // cut by the deadline
	}
	got := roundRates(rounds, 4)
	if len(got) != 2 || math.Abs(got[0]-40) > 1e-9 || math.Abs(got[1]-60) > 1e-9 {
		t.Errorf("roundRates = %v, want [40 60]", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{on: true, spans: []obs.Span{
		{ID: 1, Name: "client.request", Duration: 10 * ms},
		{ID: 2, Parent: 1, Name: "rql.Conn.replay", Duration: 8 * ms},
		{ID: 3, Parent: 2, Name: "retro.OpenSnapshotSet", Duration: 1 * ms},
		{ID: 4, Parent: 2, Name: "sql.Conn.ExecAsOf", Duration: 5 * ms},
		{ID: 5, Parent: 4, Name: "retro.OpenSnapshot", Duration: 2 * ms},
	}}
	want := map[string]time.Duration{"server": 2 * ms, "core": 2 * ms, "sql": 3 * ms, "retro": 3 * ms}
	got := r.selfTimes()
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, got[l], d)
		}
	}
}

func TestTraceOverhead(t *testing.T) {
	split := map[bool]map[string][]float64{
		true:  {"io": {11, 11, 11}, "agg": {20}},
		false: {"io": {10, 10}, "agg": {20}},
	}
	// io: 3 traced at ratio 1.1, agg: 1 traced at ratio 1.0.
	if got, want := traceOverhead(split), (3*1.1+1*1.0)/4-1; math.Abs(got-want) > 1e-12 {
		t.Errorf("traceOverhead = %v, want %v", got, want)
	}
}
