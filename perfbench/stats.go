package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// p90 needs at least 100 samples and p99 at least 1000.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
// It does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailSupported reports whether n samples leave at least minTail of
// them beyond the nearest-rank p-quantile.
func tailSupported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= minTail
}

// quartiles returns the first quartile, median and third quartile of
// xs by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads computed here match the ones
// a reader computes from the printed results.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// mixRound sums one round of the reader's mix: one request of each
// kind.
type mixRound struct {
	requests int
	iters    int
	d        time.Duration
}

// roundRates is the snapshot iterations per second of each complete
// round, one of size successful requests. The median of these is the
// mix's throughput; unlike a mean over the whole run it is not moved
// by a few stalled requests.
func roundRates(rounds []mixRound, size int) []float64 {
	var rates []float64
	for _, r := range rounds {
		if r.requests == size && r.d > 0 {
			rates = append(rates, float64(r.iters)/r.d.Seconds())
		}
	}
	return rates
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opCounts accounts attempted and failed operations of one kind. An
// operation that errors, is refused or returns a wrong result is a
// failure.
type opCounts struct {
	attempted, failed int
}

// tally sums per-kind counts into totals.
func tally(kinds map[string]*opCounts) (attempted, failed int) {
	for _, c := range kinds {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// failedShare is failed over attempted operations across all kinds.
func failedShare(kinds map[string]*opCounts) float64 {
	a, f := tally(kinds)
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// schedule is an open-loop send schedule: operation i is due at
// start + i/rate, whether or not earlier operations have finished.
type schedule struct {
	start time.Time
	every time.Duration
}

func newSchedule(start time.Time, perSecond float64) schedule {
	return schedule{start: start, every: time.Duration(float64(time.Second) / perSecond)}
}

// due is when operation i should be sent.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.every) }

// late is how far behind schedule operation i was sent at sent; an
// operation sent early (the generator slept until its due time) is
// not late.
func (s schedule) late(i int, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(i)); d > 0 {
		return d
	}
	return 0
}
