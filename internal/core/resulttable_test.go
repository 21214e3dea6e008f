package core

import (
	"fmt"
	"testing"

	"rql/internal/record"
	"rql/internal/sql"
)

// hotAggTable runs AggregateDataInTable's first iteration over groups
// groups, leaving the mechanism with its result table and index built,
// and returns it with one later iteration's Qq output: one row per
// group, each of which updates its group's row.
func hotAggTable(tb testing.TB, groups int) (*mechState, *sql.Conn, [][]record.Value) {
	tb.Helper()
	db, err := sql.Open(sql.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	r := Attach(db)
	c := db.Conn()
	for _, stmt := range []string{`CREATE TABLE t (g TEXT, v INTEGER)`, `BEGIN`} {
		if err := c.Exec(stmt, nil); err != nil {
			tb.Fatal(err)
		}
	}
	rows := make([][]record.Value, groups)
	for i := range rows {
		rows[i] = []record.Value{record.Text(fmt.Sprintf("group-%04d", i)), record.Int(1)}
	}
	if err := c.BulkInsert("t", rows); err != nil {
		tb.Fatal(err)
	}
	snap, err := c.CommitWithSnapshot()
	if err != nil {
		tb.Fatal(err)
	}
	st := &mechState{kind: mechAggTable, rql: r}
	if err := st.init(c, []record.Value{record.Null(), record.Text(`SELECT g, v FROM t`),
		record.Text("R"), record.Text("(v,sum)")}); err != nil {
		tb.Fatal(err)
	}
	if err := st.iterate(c, uint64(snap)); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.writer.Rollback() })
	return st, c, rows
}

// processIteration feeds one iteration's Qq rows to processRecord.
func processIteration(tb testing.TB, st *mechState, rows [][]record.Value) IterationCost {
	var cost IterationCost
	for _, row := range rows {
		if err := st.processRecord(2, row, &cost); err != nil {
			tb.Fatal(err)
		}
	}
	return cost
}

// TestResultTableUpdateAllocations bounds the allocations of one hot
// AggregateDataInTable iteration, in which every Qq row finds its
// group through the result-table index and updates it. The count is
// deterministic: the bound trips if the update path goes back to
// deleting and re-inserting the row, or to allocating per cell when a
// page is compacted.
func TestResultTableUpdateAllocations(t *testing.T) {
	const groups = 200
	st, _, rows := hotAggTable(t, groups)
	allocs := testing.AllocsPerRun(5, func() {
		cost := processIteration(t, st, rows)
		if cost.ResultSearch != groups || cost.ResultUpdates != groups || cost.ResultInserts != 0 {
			t.Fatalf("iteration billed %d searches, %d updates, %d inserts; want %d, %d, 0",
				cost.ResultSearch, cost.ResultUpdates, cost.ResultInserts, groups, groups)
		}
	})
	perRow := allocs / groups
	t.Logf("%.0f allocations per iteration, %.1f per updated row", allocs, perRow)
	if perRow > 4 {
		t.Fatalf("%.1f allocations per updated result row, want at most 4", perRow)
	}
}

// BenchmarkResultTableUpdate measures one hot AggregateDataInTable
// iteration over 200 groups (every row searched and updated); its
// allocs/op is the result-table write path's allocation cost.
func BenchmarkResultTableUpdate(b *testing.B) {
	st, _, rows := hotAggTable(b, 200)
	b.ReportAllocs()
	for b.Loop() {
		processIteration(b, st, rows)
	}
}
