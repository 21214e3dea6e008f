package main

import (
	"testing"
	"time"

	"rql"
)

// tinySF gives 300 orders, 30 customers and 6 orders per UW30 refresh.
const tinySF = 0.0002

// tinyEnv builds a small real database and its shadow in process:
// refreshes interleaved with quiet snapshots.
func tinyEnv(t *testing.T) *env {
	t.Helper()
	db, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	conn := db.Conn()
	h := newHistory(conn.Conn, tinySF, 7)
	if err := h.load(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Exec(`CREATE INDEX orders_okey ON orders (o_orderkey)`, nil); err != nil {
		t.Fatal(err)
	}
	p := params{
		SF: tinySF, Ops: uw30(tinySF), Window: 3, RangeKeys: 20, CollateFrac: 0.3,
		Kinds: []string{"io", "range", "collate", "agg", "int"},
	}
	for i := 0; i < 12; i++ {
		ops := 0
		if i%3 != 2 {
			ops = p.Ops
		}
		if _, err := h.step(ops); err != nil {
			t.Fatal(err)
		}
	}
	base := h.sh.snapshots()
	return &env{p: p, db: db, h: h, baseSnap: base, dateCut: h.sh.dateQuantile(base, p.CollateFrac)}
}

// checkRetro sends every request kind in process and compares the
// result table with the shadow's answer.
func checkRetro(t *testing.T, e *env, rounds int) {
	t.Helper()
	ph := newPhase(e, 3, 0, &recorder{})
	rc := e.db.Conn()
	for i := 0; i < rounds*len(e.p.Kinds); i++ {
		q := ph.nextRetro(i)
		table := ph.table("")
		if _, err := q.run(rc, table); err != nil {
			t.Fatalf("%s over %v: %v", q.kind, q.win, err)
		}
		got, err := readBack(rc, table)
		if err != nil {
			t.Fatal(err)
		}
		want := q.want()
		if len(want) == 0 {
			t.Fatalf("%s over %v: the shadow expects no rows; the check would be vacuous", q.kind, q.win)
		}
		if err := sameRows(got, want); err != nil {
			t.Errorf("%s over %v: %v", q.kind, q.win, err)
		}
	}
}

func checkPoints(t *testing.T, e *env) {
	t.Helper()
	rc := e.db.Conn()
	sh := e.h.sh
	for s := uint64(1); s <= sh.snapshots(); s++ {
		lo, hi := sh.live(s)
		for _, k := range []int64{lo - 2, lo - 1, lo, lo + 1, (lo + hi) / 2, hi - 1, hi, hi + 1} {
			got, _, err := pointRead(rc, s, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(got, sh.expectPoint(s, k)); err != nil {
				t.Errorf("AS OF %d key %d: %v", s, k, err)
			}
		}
	}
}

func TestShadowMatchesDatabase(t *testing.T) {
	e := tinyEnv(t)
	checkRetro(t, e, 3)
	e.p.Stride = 2
	checkRetro(t, e, 2)
	checkPoints(t, e)
}

// The remote writer's refreshes are SQL text: applying them must keep
// the database and the shadow in step, so every literal round-trips.
func TestRefreshSQLKeepsShadow(t *testing.T) {
	e := tinyEnv(t)
	sh, rc := e.h.sh, e.db.Conn()
	for i := 0; i < 4; i++ {
		batch := e.h.gen.NextOrders(e.p.Ops)
		if err := sh.addOrders(batch); err != nil {
			t.Fatal(err)
		}
		cut := sh.minKey + int64(e.p.Ops)
		if err := rc.Begin(); err != nil {
			t.Fatal(err)
		}
		for _, stmt := range refreshSQL(cut, batch) {
			if err := rc.Exec(stmt, nil); err != nil {
				t.Fatalf("%.80s: %v", stmt, err)
			}
		}
		id, err := rc.CommitWithSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		sh.retire(cut)
		if err := sh.declare(id); err != nil {
			t.Fatal(err)
		}
		if err := rc.RecordSnapshot(id, e.h.clock, "t"); err != nil {
			t.Fatal(err)
		}
	}
	// The inserted rows carry the generator's exact values.
	rows, err := rc.Query(`SELECT o_orderkey, o_custkey, o_orderstatus, o_orderdate FROM orders WHERE o_orderkey > ?`,
		rql.Int(int64(len(sh.orders)-e.p.Ops)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows.Rows {
		o := sh.order(r[0].Int())
		if r[1].Int() != o.cust || r[2].Text() != o.status || r[3].Text() != o.date {
			t.Errorf("key %d: got %v, shadow %+v", r[0].Int(), r, o)
		}
	}
	e.baseSnap = sh.snapshots()
	checkRetro(t, e, 1)
	checkPoints(t, e)
}

func TestSameRowsIsAMultisetCompare(t *testing.T) {
	a := rowKey(rql.Int(1), rql.Text("x"))
	b := rowKey(rql.Int(2), rql.Text("x"))
	if err := sameRows([]string{a, b, a}, []string{b, a, a}); err != nil {
		t.Errorf("reordered rows differ: %v", err)
	}
	if sameRows([]string{a, b}, []string{a, a}) == nil || sameRows([]string{a}, []string{a, a}) == nil {
		t.Error("different multisets compared equal")
	}
	if rowKey(rql.Int(1)) == rowKey(rql.Float(1)) {
		t.Error("an INTEGER and a REAL with the same value render alike")
	}
}

// BENCHMARK.json must list exactly the metrics the result line carries,
// with the same units, for both kinds of run.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	cfg, err := readConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e := tinyEnv(t)
	r := &report{p: e.p}
	newPhase(e, 1, 0, &recorder{}).fill(r, counters{}, counters{}, time.Second, 0, e.db)
	for _, c := range []struct {
		name   string
		listed []configMetric
		got    []named
	}{{"end_to_end", cfg.EndToEnd, r.e2e}, {"per_layer", cfg.PerLayer, r.layer}} {
		want := map[string]string{}
		for _, m := range c.listed {
			want[m.Name] = m.Unit
		}
		for _, m := range c.got {
			if u, ok := want[m.name]; !ok || u != m.unit {
				t.Errorf("%s: reported %s (%s) is not listed with that unit", c.name, m.name, m.unit)
			}
			delete(want, m.name)
		}
		for n := range want {
			t.Errorf("%s: listed %s is not reported", c.name, n)
		}
	}
}
