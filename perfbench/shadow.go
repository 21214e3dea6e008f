package main

import (
	"fmt"
	"sort"
	"sync"

	"rql"
	"rql/internal/tpch"
)

// order is the shadow model's copy of the orders columns the
// benchmark's queries read.
type order struct {
	cust   int64
	status string
	date   string
}

// shadow is the analytic model of the TPC-H refresh front. Order keys
// are handed out densely from 1 and deletions retire the oldest keys,
// so the orders live at snapshot s are exactly the key range
// [lo[s], hi[s]]. The model is filled from the generator's own rows as
// the benchmark inserts them, never by reading the database back.
type shadow struct {
	mu     sync.RWMutex
	orders []order // orders[k-1] describes key k
	openO  []int   // openO[k] = keys < k+1 with status 'O' (prefix count)
	lo, hi []int64 // live key range per snapshot id (index 0 unused)
	minKey int64   // oldest live key of the current state
}

func newShadow() *shadow {
	return &shadow{openO: []int{0}, lo: []int64{0}, hi: []int64{0}, minKey: 1}
}

// addOrders records newly generated orders; keys must continue the
// dense sequence.
func (sh *shadow) addOrders(os []tpch.Order) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, o := range os {
		k := o.Row[0].Int()
		if k != int64(len(sh.orders))+1 {
			return fmt.Errorf("shadow: order key %d out of sequence (expected %d)", k, len(sh.orders)+1)
		}
		st := o.Row[2].Text()
		sh.orders = append(sh.orders, order{cust: o.Row[1].Int(), status: st, date: o.Row[4].Text()})
		n := sh.openO[len(sh.openO)-1]
		if st == "O" {
			n++
		}
		sh.openO = append(sh.openO, n)
	}
	return nil
}

// retire advances the deletion front: keys below cut are deleted.
func (sh *shadow) retire(cut int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cut > sh.minKey {
		sh.minKey = cut
	}
}

// declare records that snapshot id captured the current state.
func (sh *shadow) declare(id uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id != uint64(len(sh.lo)) {
		return fmt.Errorf("shadow: snapshot %d declared out of sequence (expected %d)", id, len(sh.lo))
	}
	sh.lo = append(sh.lo, sh.minKey)
	sh.hi = append(sh.hi, int64(len(sh.orders)))
	return nil
}

// snapshots is the number of declared snapshots.
func (sh *shadow) snapshots() uint64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return uint64(len(sh.lo) - 1)
}

// live is the live key range at snapshot s.
func (sh *shadow) live(s uint64) (lo, hi int64) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.lo[s], sh.hi[s]
}

// order returns key k's shadow row.
func (sh *shadow) order(k int64) order {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.orders[k-1]
}

// openCount is Qq_io's answer at snapshot s: live orders with status 'O'.
func (sh *shadow) openCount(s uint64) int64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return int64(sh.openO[sh.hi[s]] - sh.openO[sh.lo[s]-1])
}

// rangeCount is the number of live keys at s in [a, b).
func (sh *shadow) rangeCount(s uint64, a, b int64) int64 {
	lo, hi := sh.live(s)
	lo, hi = max(lo, a), min(hi, b-1)
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

// dateQuantile is the o_orderdate below which about frac of the
// orders live at snapshot s fall.
func (sh *shadow) dateQuantile(s uint64, frac float64) string {
	lo, hi := sh.live(s)
	dates := make([]string, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		dates = append(dates, sh.order(k).date)
	}
	sort.Strings(dates)
	return dates[int(frac*float64(len(dates)))]
}

// The expected results below render rows in the canonical text form
// rowKey produces, so they compare directly with what the database
// returns.

// expectCollate is CollateData over Qq_collate with a current_snapshot()
// tag: every (key, s) with key live at s and dated before date.
func (sh *shadow) expectCollate(win []uint64, date string) []string {
	var out []string
	for _, s := range win {
		lo, hi := sh.live(s)
		for k := lo; k <= hi; k++ {
			if sh.order(k).date < date {
				out = append(out, rowKey(rql.Int(k), rql.Int(int64(s))))
			}
		}
	}
	return out
}

// expectAggCn is AggregateDataInTable over Qq_agg's count column with
// (cn,MAX): per customer, the largest order count any member saw.
func (sh *shadow) expectAggCn(win []uint64) []string {
	best := map[int64]int64{}
	for _, s := range win {
		cn := map[int64]int64{}
		lo, hi := sh.live(s)
		for k := lo; k <= hi; k++ {
			cn[sh.order(k).cust]++
		}
		for c, n := range cn {
			if n > best[c] {
				best[c] = n
			}
		}
	}
	out := make([]string, 0, len(best))
	for c, n := range best {
		out = append(out, rowKey(rql.Int(c), rql.Int(n)))
	}
	return out
}

// expectIntervals is CollateDataIntoIntervals over keys [a, b): one row
// per maximal run of consecutive members in which the key is live.
func (sh *shadow) expectIntervals(win []uint64, a, b int64) []string {
	var out []string
	for k := a; k < b; k++ {
		var start, prev uint64
		open := false
		flush := func() {
			if open {
				c := sh.order(k).cust
				out = append(out, rowKey(rql.Int(k), rql.Int(c), rql.Int(int64(start)), rql.Int(int64(prev))))
				open = false
			}
		}
		for _, s := range win {
			lo, hi := sh.live(s)
			if k >= lo && k <= hi {
				if !open {
					start, open = s, true
				}
				prev = s
			} else {
				flush()
			}
		}
		flush()
	}
	return out
}

// expectPoint is an AS OF point read of key k at s, tagged with
// current_snapshot().
func (sh *shadow) expectPoint(s uint64, k int64) []string {
	lo, hi := sh.live(s)
	if k < lo || k > hi {
		return nil
	}
	return []string{rowKey(rql.Int(k), rql.Int(sh.order(k).cust), rql.Int(int64(s)))}
}

// rowKey renders a row canonically: type-tagged values joined by '|'.
func rowKey(vals ...rql.Value) string {
	b := make([]byte, 0, 32)
	for i, v := range vals {
		if i > 0 {
			b = append(b, '|')
		}
		b = fmt.Appendf(b, "%d:%s", v.Type(), v.String())
	}
	return string(b)
}

// rowKeys renders a result's rows canonically, sorted.
func rowKeys(rows [][]rql.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r...)
	}
	sort.Strings(out)
	return out
}

// sameRows compares two canonical row lists as multisets, and
// describes the first difference.
func sameRows(got, want []string) error {
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Errorf("row %d: got %s, want %s (%d vs %d rows)", i, g[i], w[i], len(g), len(w))
		}
	}
	if len(g) != len(w) {
		return fmt.Errorf("got %d rows, want %d", len(g), len(w))
	}
	return nil
}
