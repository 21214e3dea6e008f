package sql

import (
	"bytes"
	"fmt"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/storage"
)

// TableWriter is a prepared write path into one table: it holds a
// writer transaction open and performs inserts, indexed lookups and
// updates without re-parsing SQL. The RQL mechanisms use it for their
// result-table processing (the paper's UDF callbacks run prepared
// operations against the result table for every Qq record).
type TableWriter struct {
	conn *Conn
	tx   *storage.Tx
	own  bool
	t    *Table
	ixs  []*Index // t's indexes
	sch  *schema
	done bool

	// Reused across calls: a written row's copy, a lookup's prefix and row.
	row, found []record.Value
	key        []byte
}

// OpenTableWriter opens a writer on the named table. If the table lives
// in the main store and an explicit transaction is open, writes join
// that transaction; otherwise the writer holds its own transaction
// until Commit or Rollback.
func (c *Conn) OpenTableWriter(name string) (*TableWriter, error) {
	toSide, err := c.tableIsTemp(name)
	if err != nil {
		return nil, err
	}
	w := &TableWriter{conn: c}
	switch {
	case toSide:
		tx, err := c.db.side.Begin()
		if err != nil {
			return nil, err
		}
		w.tx, w.own = tx, true
		w.sch, err = loadSchema(tx, true)
		if err != nil {
			tx.Rollback()
			return nil, err
		}
	case c.mainTx != nil:
		w.tx, w.own = c.mainTx, false
		w.sch, err = loadSchema(w.tx, false)
		if err != nil {
			return nil, err
		}
	default:
		tx, err := c.db.main.Begin()
		if err != nil {
			return nil, err
		}
		w.tx, w.own = tx, true
		w.sch, err = loadSchema(tx, false)
		if err != nil {
			tx.Rollback()
			return nil, err
		}
	}
	w.t = w.sch.table(name)
	if w.t == nil {
		w.Rollback()
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	w.ixs, w.found = w.sch.tableIndexes(w.t.Name), make([]record.Value, len(w.t.Cols)+1)
	return w, nil
}

// Table returns the column metadata of the target table.
func (w *TableWriter) Table() *Table { return w.t }

// Insert adds one row, maintaining all indexes, and returns its rowid.
func (w *TableWriter) Insert(vals []record.Value) (int64, error) {
	if w.done {
		return 0, storage.ErrTxDone
	}
	w.row = append(w.row[:0], vals...)
	return insertRow(w.tx, w.t, w.ixs, w.row)
}

// LookupByIndex finds the first row whose index-key prefix matches vals
// on the named index, returning its rowid and column values. The values
// are valid until the writer's next LookupByIndex.
func (w *TableWriter) LookupByIndex(indexName string, vals []record.Value) (int64, []record.Value, bool, error) {
	if w.done {
		return 0, nil, false, storage.ErrTxDone
	}
	ix := w.sch.index(indexName)
	if ix == nil {
		return 0, nil, false, fmt.Errorf("%w: %s", ErrNoIndex, indexName)
	}
	w.key = record.EncodeKey(w.key[:0], vals)
	cur := btree.Open(w.tx, ix.Root).Cursor()
	ok, err := cur.Seek(w.key)
	if err != nil || !ok {
		return 0, nil, false, err
	}
	key := cur.Key()
	if !bytes.HasPrefix(key, w.key) {
		return 0, nil, false, nil
	}
	rowid, err := keyRowid(w.t, key)
	if err != nil {
		return 0, nil, false, err
	}
	found, err := fetchRow(w.found, btree.Open(w.tx, w.t.Root), rowid, nil)
	if err != nil || !found {
		return 0, nil, false, err
	}
	return rowid, w.found[:len(w.t.Cols)], true, nil
}

// Update rewrites the row identified by rowid from oldVals, the values
// it holds now, to newVals, in place where it can (see updateRowByID).
func (w *TableWriter) Update(rowid int64, oldVals, newVals []record.Value) error {
	if w.done {
		return storage.ErrTxDone
	}
	w.row = append(w.row[:0], newVals...)
	return updateRowByID(w.tx, w.t, w.ixs, rowid, oldVals, w.row)
}

// Commit publishes the writes (a no-op handoff when the writer joined
// an explicit transaction).
func (w *TableWriter) Commit() error {
	if w.done {
		return storage.ErrTxDone
	}
	w.done = true
	if !w.own {
		return nil
	}
	return w.tx.Commit()
}

// Rollback discards the writes (only for writers owning their
// transaction; joined writers leave the decision to the owner).
func (w *TableWriter) Rollback() {
	if w.done {
		return
	}
	w.done = true
	if w.own {
		w.tx.Rollback()
	}
}

// TableStats reports a table's size: rows, encoded data bytes, and the
// total key bytes of its indexes. Used by the §5.3 memory-footprint
// experiments.
type TableStats struct {
	Rows       int
	DataBytes  int64
	IndexBytes int64
}

// TableStats measures the named table in the current state.
func (c *Conn) TableStats(name string) (TableStats, error) {
	var out TableStats
	toSide, err := c.tableIsTemp(name)
	if err != nil {
		return out, err
	}
	store := c.db.main
	if toSide {
		store = c.db.side
	}
	rt, err := store.BeginRead()
	if err != nil {
		return out, err
	}
	defer rt.Close()
	sch, err := loadSchema(rt, toSide)
	if err != nil {
		return out, err
	}
	t := sch.table(name)
	if t == nil {
		return out, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	cur := btree.Open(rt, t.Root).Cursor()
	ok, err := cur.First()
	for ; ok && err == nil; ok, err = cur.Next() {
		out.Rows++
		out.DataBytes += int64(len(cur.Key()) + len(cur.Value()))
	}
	if err != nil {
		return out, err
	}
	for _, ix := range sch.tableIndexes(t.Name) {
		icur := btree.Open(rt, ix.Root).Cursor()
		ok, err := icur.First()
		for ; ok && err == nil; ok, err = icur.Next() {
			out.IndexBytes += int64(len(icur.Key()))
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Columns plans a SELECT and returns its output column names without
// executing it. asOf = 0 plans against the current state. The RQL
// mechanisms use it to create result tables shaped like Qq's output.
func (c *Conn) Columns(sqlText string, asOf uint64) ([]string, error) {
	return c.columns(sqlText, nil, asOf)
}

func (c *Conn) columns(sqlText string, set *ReaderSet, asOf uint64) ([]string, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: Columns requires a SELECT")
	}
	bind := retro.SnapshotID(asOf)
	if sel.AsOf != nil {
		v, err := c.constEval(sel.AsOf, nil)
		if err != nil {
			return nil, err
		}
		bind = retro.SnapshotID(v.AsInt())
	}
	stats := ExecStats{}
	ec, err := c.newReadCtx(set, bind, nil, &stats)
	if err != nil {
		return nil, err
	}
	defer ec.close()
	it, cols, err := planSelect(sel, ec)
	if err != nil {
		return nil, err
	}
	it.Close()
	names := make([]string, len(cols))
	for i, ci := range cols {
		names[i] = ci.name
	}
	return names, nil
}

// QuoteIdent quotes an identifier for inclusion in generated SQL.
func QuoteIdent(name string) string { return quoteIdent(name) }

// ObjectInfo describes one catalog object (for shells and tools).
type ObjectInfo struct {
	Kind  string // "table" or "index"
	Name  string
	Table string // owning table for indexes
	Temp  bool   // lives in the non-snapshotable side store
}

// Objects lists every table and index in both stores.
func (c *Conn) Objects() ([]ObjectInfo, error) {
	var out []ObjectInfo
	for _, side := range []bool{false, true} {
		store := c.db.main
		if side {
			store = c.db.side
		}
		rt, err := store.BeginRead()
		if err != nil {
			return nil, err
		}
		sch, err := loadSchema(rt, side)
		rt.Close()
		if err != nil {
			return nil, err
		}
		for _, t := range sch.tables {
			out = append(out, ObjectInfo{Kind: "table", Name: t.Name, Temp: side})
		}
		for _, ix := range sch.indexes {
			out = append(out, ObjectInfo{Kind: "index", Name: ix.Name, Table: ix.Table, Temp: side})
		}
	}
	sortObjects(out)
	return out, nil
}

func sortObjects(objs []ObjectInfo) {
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && objLess(objs[j], objs[j-1]); j-- {
			objs[j], objs[j-1] = objs[j-1], objs[j]
		}
	}
}

func objLess(a, b ObjectInfo) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind // indexes before tables is fine; stable rule
	}
	return a.Name < b.Name
}
