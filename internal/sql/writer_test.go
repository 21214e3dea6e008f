package sql

import (
	"errors"
	"testing"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/storage"
)

func TestTableWriterInsertLookupUpdate(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TEMP TABLE r (grp TEXT, n INTEGER)`)
	mustExec(t, c, `CREATE INDEX r_grp ON r (grp)`)

	w, err := c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	if w.Table().Name != "r" || len(w.Table().Cols) != 2 {
		t.Errorf("Table(): %+v", w.Table())
	}
	rowid, err := w.Insert([]record.Value{record.Text("a"), record.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert([]record.Value{record.Text("b"), record.Int(2)}); err != nil {
		t.Fatal(err)
	}

	// Lookup through the index within the open transaction.
	gotID, row, found, err := w.LookupByIndex("r_grp", []record.Value{record.Text("a")})
	if err != nil || !found || gotID != rowid || row[1].Int() != 1 {
		t.Fatalf("lookup: id=%d row=%v found=%v err=%v", gotID, row, found, err)
	}
	if _, _, found, _ := w.LookupByIndex("r_grp", []record.Value{record.Text("zz")}); found {
		t.Error("lookup of absent key")
	}
	if _, _, _, err := w.LookupByIndex("nope", nil); !errors.Is(err, ErrNoIndex) {
		t.Errorf("unknown index: %v", err)
	}

	// Update maintains the index.
	if err := w.Update(rowid,
		[]record.Value{record.Text("a"), record.Int(1)},
		[]record.Value{record.Text("z"), record.Int(10)}); err != nil {
		t.Fatal(err)
	}
	if _, _, found, _ := w.LookupByIndex("r_grp", []record.Value{record.Text("a")}); found {
		t.Error("old index entry survived update")
	}
	_, row, found, _ = w.LookupByIndex("r_grp", []record.Value{record.Text("z")})
	if !found || row[1].Int() != 10 {
		t.Errorf("updated row: %v %v", row, found)
	}

	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	expectSet(t, q(t, c, `SELECT grp, n FROM r`), "z|10", "b|2")

	// Writer methods after Commit fail cleanly.
	if _, err := w.Insert([]record.Value{record.Text("c"), record.Int(3)}); !errors.Is(err, storage.ErrTxDone) {
		t.Errorf("insert after commit: %v", err)
	}
}

func TestTableWriterRollback(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE r (a)`)
	w, err := c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert([]record.Value{record.Int(1)}); err != nil {
		t.Fatal(err)
	}
	w.Rollback()
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM r`), "0")
}

func TestTableWriterJoinsExplicitTx(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE r (a)`)
	mustExec(t, c, `BEGIN`)
	w, err := c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert([]record.Value{record.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil { // hand-off, not a real commit
		t.Fatal(err)
	}
	mustExec(t, c, `ROLLBACK`) // the enclosing tx still owns the write
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM r`), "0")
}

func TestTableWriterMissingTable(t *testing.T) {
	c := testConn(t)
	if _, err := c.OpenTableWriter("missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
}

func TestColumnsAPI(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a, b)`)
	cols, err := c.Columns(`SELECT a, b AS bee, COUNT(*) AS cnt FROM t GROUP BY a`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 || cols[0] != "a" || cols[1] != "bee" || cols[2] != "cnt" {
		t.Errorf("Columns: %v", cols)
	}
	// Planning only: no rows touched, works on empty tables.
	if _, err := c.Columns(`INSERT INTO t VALUES (1, 2)`, 0); err == nil {
		t.Error("Columns should reject non-SELECT")
	}
	// Snapshot-bound schema.
	mustExec(t, c, `BEGIN; COMMIT WITH SNAPSHOT`)
	mustExec(t, c, `DROP TABLE t`)
	if _, err := c.Columns(`SELECT * FROM t`, 1); err != nil {
		t.Errorf("Columns over snapshot schema: %v", err)
	}
	if _, err := c.Columns(`SELECT * FROM t`, 0); !errors.Is(err, ErrNoTable) {
		t.Errorf("Columns over current schema after drop: %v", err)
	}
}

func TestObjectsAPI(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t1 (a)`)
	mustExec(t, c, `CREATE INDEX i1 ON t1 (a)`)
	mustExec(t, c, `CREATE TEMP TABLE tmp1 (b)`)
	objs, err := c.Objects()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]ObjectInfo{}
	for _, o := range objs {
		found[o.Name] = o
	}
	if o := found["t1"]; o.Kind != "table" || o.Temp {
		t.Errorf("t1: %+v", o)
	}
	if o := found["i1"]; o.Kind != "index" || o.Table != "t1" {
		t.Errorf("i1: %+v", o)
	}
	if o := found["tmp1"]; o.Kind != "table" || !o.Temp {
		t.Errorf("tmp1: %+v", o)
	}
}

func TestTableStatsAPI(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a TEXT)`)
	mustExec(t, c, `CREATE INDEX t_a ON t (a)`)
	for i := 0; i < 50; i++ {
		mustExec(t, c, `INSERT INTO t VALUES ('hello world')`)
	}
	st, err := c.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 50 || st.DataBytes == 0 || st.IndexBytes == 0 {
		t.Errorf("TableStats: %+v", st)
	}
	if _, err := c.TableStats("nope"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
}

// checkOneEntryPerRow verifies that every index on table holds exactly
// one entry per row, keyed by that row's current values and rowid, and
// nothing else.
func checkOneEntryPerRow(t *testing.T, p storage.Pager, sch *schema, table string) {
	t.Helper()
	tab := sch.table(table)
	scan := newTableScan(p, tab, nil)
	var rows [][]record.Value
	for {
		row, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		rows = append(rows, append([]record.Value(nil), row...))
	}
	for _, ix := range sch.tableIndexes(table) {
		want := map[string]int{}
		for _, row := range rows {
			key, err := indexKey(nil, ix, tab, row[:len(row)-1], row[len(row)-1].Int())
			if err != nil {
				t.Fatal(err)
			}
			want[string(key)]++
		}
		cur := btree.Open(p, ix.Root).Cursor()
		n := 0
		ok, err := cur.First()
		for ; ok && err == nil; ok, err = cur.Next() {
			if want[string(cur.Key())] != 1 {
				t.Fatalf("index %s: entry %x matches %d rows, want 1", ix.Name, cur.Key(), want[string(cur.Key())])
			}
			n++
		}
		if err != nil {
			t.Fatal(err)
		}
		if n != len(rows) {
			t.Fatalf("index %s has %d entries for %d rows", ix.Name, n, len(rows))
		}
	}
}

// checkCommitted runs checkOneEntryPerRow over the committed main store.
func checkCommitted(t *testing.T, c *Conn, table string) {
	t.Helper()
	rt, err := c.db.main.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sch, err := loadSchema(rt, false)
	if err != nil {
		t.Fatal(err)
	}
	checkOneEntryPerRow(t, rt, sch, table)
}

func TestUpdateKeepsOneIndexEntryPerRow(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE r (g TEXT, u INTEGER, v TEXT)`)
	mustExec(t, c, `CREATE INDEX r_g ON r (g)`)
	mustExec(t, c, `CREATE UNIQUE INDEX r_u ON r (u)`)
	mustExec(t, c, `CREATE INDEX r_gv ON r (g, v)`)
	mustExec(t, c, `INSERT INTO r VALUES ('a', 1, 'x'), ('a', 2, 'y'), ('b', 3, 'z')`)

	// Only r_gv's key changes; then every key changes at once.
	mustExec(t, c, `UPDATE r SET v = 'w' WHERE u = 2`)
	checkCommitted(t, c, "r")
	mustExec(t, c, `UPDATE r SET u = u + 10, v = v || v`)
	checkCommitted(t, c, "r")
	expectSet(t, q(t, c, `SELECT g, u, v FROM r`), "a|11|xx", "a|12|ww", "b|13|zz")

	// A unique violation fails the statement and leaves every entry in
	// place, in autocommit and inside an explicit transaction.
	if err := c.Exec(`UPDATE r SET u = 13 WHERE u = 11`, nil); !errors.Is(err, ErrUniqueIndex) {
		t.Fatalf("duplicate u: %v", err)
	}
	checkCommitted(t, c, "r")
	mustExec(t, c, `BEGIN`)
	if err := c.Exec(`UPDATE r SET u = 12, v = 'q' WHERE u = 11`, nil); !errors.Is(err, ErrUniqueIndex) {
		t.Fatalf("duplicate u in a transaction: %v", err)
	}
	mustExec(t, c, `UPDATE r SET g = 'c' WHERE u = 13`)
	mustExec(t, c, `COMMIT`)
	checkCommitted(t, c, "r")
	expectSet(t, q(t, c, `SELECT g, u, v FROM r`), "a|11|xx", "a|12|ww", "c|13|zz")

	// Moving an INTEGER PRIMARY KEY moves the row to the new rowid.
	mustExec(t, c, `CREATE TABLE p (id INTEGER PRIMARY KEY, g TEXT)`)
	mustExec(t, c, `CREATE INDEX p_g ON p (g)`)
	mustExec(t, c, `INSERT INTO p VALUES (1, 'a'), (2, 'b')`)
	mustExec(t, c, `UPDATE p SET id = 7 WHERE id = 1`)
	mustExec(t, c, `UPDATE p SET g = 'bb' WHERE id = 2`)
	checkCommitted(t, c, "p")
	expectSet(t, q(t, c, `SELECT id, g FROM p`), "7|a", "2|bb")
}

func TestTableWriterUpdateKeepsOneIndexEntryPerRow(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TEMP TABLE r (g TEXT, u INTEGER, v TEXT)`)
	mustExec(t, c, `CREATE INDEX r_g ON r (g)`)
	mustExec(t, c, `CREATE UNIQUE INDEX r_u ON r (u)`)
	w, err := c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Rollback()
	row := func(g string, u int64, v string) []record.Value {
		return []record.Value{record.Text(g), record.Int(u), record.Text(v)}
	}
	id1, err := w.Insert(row("a", 1, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert(row("b", 2, "y")); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		old, new []record.Value
		err      error
	}{
		{row("a", 1, "x"), row("a", 1, "z"), nil},                       // same size, no key change
		{row("a", 1, "z"), row("a", 1, "a longer value"), nil},          // cell grows
		{row("a", 1, "a longer value"), row("a", 1, ""), nil},           // cell shrinks
		{row("a", 1, ""), row("c", 3, "m"), nil},                        // both keys move
		{row("c", 3, "m"), row("d", 2, "n"), ErrUniqueIndex},            // u collides with row 2
		{row("c", 3, "m"), row("c", 3, "after the failed update"), nil}, // row survived intact
	}
	for i, s := range steps {
		if err := w.Update(id1, s.old, s.new); !errors.Is(err, s.err) {
			t.Fatalf("step %d: Update err = %v, want %v", i, err, s.err)
		}
		checkOneEntryPerRow(t, w.tx, w.sch, "r")
	}
	got, vals, found, err := w.LookupByIndex("r_u", []record.Value{record.Int(3)})
	if err != nil || !found || got != id1 || vals[2].Text() != "after the failed update" {
		t.Fatalf("lookup after updates: id=%d vals=%v found=%v err=%v", got, vals, found, err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	expectSet(t, q(t, c, `SELECT g, u, v FROM r`), "c|3|after the failed update", "b|2|y")
}

// Rowids of 2^53 and above take the long key encoding, so the lookup
// cannot read them from the fixed-width suffix.
func TestTableWriterLookupLargeRowid(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TEMP TABLE w (id INTEGER PRIMARY KEY, u TEXT)`)
	mustExec(t, c, `CREATE INDEX w_u ON w (u)`)
	mustExec(t, c, `INSERT INTO w VALUES (4611686018427387904, 'big'), (7, 'small')`)
	w, err := c.OpenTableWriter("w")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Rollback()
	for _, want := range []struct {
		u  string
		id int64
	}{{"big", 4611686018427387904}, {"small", 7}} {
		id, vals, found, err := w.LookupByIndex("w_u", []record.Value{record.Text(want.u)})
		if err != nil || !found || id != want.id || vals[1].Text() != want.u {
			t.Fatalf("lookup %q: id=%d vals=%v found=%v err=%v", want.u, id, vals, found, err)
		}
	}
}
