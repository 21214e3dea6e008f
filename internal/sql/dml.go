package sql

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/storage"
)

// writeEnv is the execution environment of a write statement: an
// execCtx whose pager for the target store is a writer transaction.
type writeEnv struct {
	ec     *execCtx
	tx     *storage.Tx
	own    bool // autocommit: we opened tx and must commit/rollback it
	toSide bool
}

func (w *writeEnv) finish(err error) error {
	if ferr := w.ec.finalize(err == nil); err == nil {
		err = ferr
	}
	w.ec.close()
	if !w.own {
		return err
	}
	if err != nil {
		w.tx.Rollback()
		return err
	}
	return w.tx.Commit()
}

// targetStore decides which store a write statement addresses.
func (c *Conn) targetStore(stmt Statement) (toSide bool, err error) {
	name := ""
	switch s := stmt.(type) {
	case *InsertStmt:
		name = s.Table
	case *UpdateStmt:
		name = s.Table
	case *DeleteStmt:
		name = s.Table
	case *CreateTableStmt:
		return s.Temp, nil
	case *CreateIndexStmt:
		name = s.Table
	case *DropStmt:
		name = s.Name
	case *CreateRetroViewStmt:
		return true, nil // view definitions live in the side store
	case *DropRetroViewStmt:
		return true, nil
	default:
		return false, fmt.Errorf("sql: unsupported write statement %T", stmt)
	}
	// A cheap side-store catalog probe: temp objects shadow main ones.
	rt, err := c.db.side.BeginRead()
	if err != nil {
		return false, err
	}
	defer rt.Close()
	sch, err := c.db.currentSchema(c.db.side, rt, rt.LSN(), true)
	if err != nil {
		return false, err
	}
	if d, ok := stmt.(*DropStmt); ok && d.Index {
		return sch.index(name) != nil, nil
	}
	return sch.table(name) != nil, nil
}

// newWriteEnv builds the environment: a writer transaction on the
// target store, read access to the other store.
func (c *Conn) newWriteEnv(toSide bool, params []record.Value, stats *ExecStats) (*writeEnv, error) {
	w := &writeEnv{toSide: toSide}
	ec := &execCtx{conn: c, params: params, stats: stats}
	w.ec = ec

	if toSide {
		tx, err := c.db.side.BeginCtx(c.ctx)
		if err != nil {
			return nil, err
		}
		w.tx, w.own = tx, true
		ec.sidePager = tx
		// Main store is read-only here.
		if c.mainTx != nil {
			ec.mainPager = c.mainTx
		} else {
			mrt, err := c.db.main.BeginRead()
			if err != nil {
				tx.Rollback()
				return nil, err
			}
			ec.closers = append(ec.closers, mrt.Close)
			ec.mainPager = mrt
		}
	} else {
		if c.mainTx != nil {
			w.tx, w.own = c.mainTx, false
		} else {
			tx, err := c.db.main.BeginCtx(c.ctx)
			if err != nil {
				return nil, err
			}
			tx.SetTraceSpan(c.traceParent())
			w.tx, w.own = tx, true
		}
		ec.mainPager = w.tx
		srt, err := c.db.side.BeginRead()
		if err != nil {
			if w.own {
				w.tx.Rollback()
			}
			return nil, err
		}
		ec.closers = append(ec.closers, srt.Close)
		ec.sidePager = srt
	}

	var err error
	ec.mainSchema, err = loadSchema(ec.mainPager, false)
	if err == nil {
		ec.sideSchema, err = loadSchema(ec.sidePager, true)
	}
	if err != nil {
		if w.own {
			w.tx.Rollback()
		}
		ec.close()
		return nil, err
	}
	return w, nil
}

// conflictBackoff caps the per-attempt backoff of the autocommit
// conflict retry loop (see retryWrite).
const conflictBackoff = time.Millisecond

// retryWrite runs fn, retrying on ErrWriteConflict when the statement
// autocommits (no explicit transaction is open — inside one, the
// conflict belongs to the client, surfacing at COMMIT). Each attempt
// runs on a fresh snapshot with freshly loaded schemas, so re-execution
// is equivalent to the client resubmitting the statement. The loop is
// unbounded: a conflict abort means some other transaction committed,
// so the system as a whole always progresses; a growing, capped backoff
// keeps an unlucky statement from starving under sustained contention.
// stats is reset between attempts so only the winning execution is
// accounted.
func (c *Conn) retryWrite(stats *ExecStats, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || !errors.Is(err, storage.ErrWriteConflict) || c.mainTx != nil {
			return err
		}
		*stats = ExecStats{}
		if attempt >= 4 {
			d := time.Duration(attempt) * 50 * time.Microsecond
			if d > conflictBackoff {
				d = conflictBackoff
			}
			time.Sleep(d)
		}
	}
}

// execWrite executes a non-SELECT, non-transaction-control statement,
// transparently retrying autocommit statements that lose a
// first-committer-wins conflict in the commit group.
func (c *Conn) execWrite(stmt Statement, params []record.Value, stats *ExecStats) error {
	return c.retryWrite(stats, func() error {
		return c.execWriteOnce(stmt, params, stats)
	})
}

func (c *Conn) execWriteOnce(stmt Statement, params []record.Value, stats *ExecStats) error {
	toSide, err := c.targetStore(stmt)
	if err != nil {
		return err
	}
	w, err := c.newWriteEnv(toSide, params, stats)
	if err != nil {
		return err
	}
	switch s := stmt.(type) {
	case *InsertStmt:
		err = w.execInsert(s)
	case *UpdateStmt:
		err = w.execUpdate(s)
	case *DeleteStmt:
		err = w.execDelete(s)
	case *CreateTableStmt:
		err = w.execCreateTable(s)
	case *CreateIndexStmt:
		err = w.execCreateIndex(s)
	case *DropStmt:
		err = w.execDrop(s)
	case *CreateRetroViewStmt:
		err = w.execCreateRetroView(s)
	case *DropRetroViewStmt:
		err = w.execDropRetroView(s)
	default:
		err = fmt.Errorf("sql: unsupported write statement %T", stmt)
	}
	return w.finish(err)
}

// writeTable resolves the target table; it must live in the store the
// write transaction is on.
func (w *writeEnv) writeTable(name string) (*Table, *schema, error) {
	t, sch, _, err := w.ec.resolveTable(name)
	if err != nil {
		return nil, nil, err
	}
	if t.Temp != w.toSide {
		return nil, nil, fmt.Errorf("sql: internal: table %s resolved to the wrong store", name)
	}
	return t, sch, nil
}

func (w *writeEnv) execInsert(s *InsertStmt) error {
	t, sch, err := w.writeTable(s.Table)
	if err != nil {
		return err
	}
	// Column mapping.
	colIdx := make([]int, 0, len(s.Cols))
	for _, cn := range s.Cols {
		k := t.ColIndex(cn)
		if k < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, cn)
		}
		colIdx = append(colIdx, k)
	}
	buildRow := func(given []record.Value) ([]record.Value, error) {
		if len(s.Cols) == 0 {
			if len(given) != len(t.Cols) {
				return nil, fmt.Errorf("sql: table %s has %d columns but %d values were supplied", t.Name, len(t.Cols), len(given))
			}
			out := make([]record.Value, len(given))
			copy(out, given)
			return out, nil
		}
		if len(given) != len(colIdx) {
			return nil, fmt.Errorf("sql: %d columns but %d values", len(colIdx), len(given))
		}
		out := make([]record.Value, len(t.Cols))
		for i := range out {
			out[i] = record.Null()
		}
		for i, k := range colIdx {
			out[k] = given[i]
		}
		return out, nil
	}

	var sourceRows [][]record.Value
	switch {
	case s.Select != nil:
		it, _, err := planSelect(s.Select, w.ec)
		if err != nil {
			return err
		}
		sourceRows, err = drain(it)
		if err != nil {
			return err
		}
	default:
		env := &compileEnv{ec: w.ec}
		for _, exprRow := range s.Rows {
			vals := make([]record.Value, len(exprRow))
			for i, e := range exprRow {
				ce, err := compileExpr(e, env)
				if err != nil {
					return err
				}
				v, err := ce(&rowCtx{ec: w.ec})
				if err != nil {
					return err
				}
				vals[i] = v
			}
			sourceRows = append(sourceRows, vals)
		}
	}
	ixs := sch.tableIndexes(t.Name)
	for _, given := range sourceRows {
		vals, err := buildRow(given)
		if err != nil {
			return err
		}
		if _, err := insertRow(w.tx, t, ixs, vals); err != nil {
			return err
		}
	}
	return nil
}

// insertRow applies affinity and constraints, assigns the rowid, and
// writes the row plus its index entries. It is the insert path shared
// by SQL INSERT, an UPDATE that moves a row's rowid, bulk loading, and
// the RQL mechanisms' result-table inserts.
func insertRow(p storage.Pager, t *Table, ixs []*Index, vals []record.Value) (int64, error) {
	aliasIdx, err := conformRow(t, vals)
	if err != nil {
		return 0, err
	}
	tbl := btree.Open(p, t.Root)

	var rowid int64
	switch {
	case aliasIdx >= 0 && !vals[aliasIdx].IsNull():
		if vals[aliasIdx].Type() != record.TypeInt {
			return 0, fmt.Errorf("sql: %s.%s must be an integer", t.Name, t.Cols[aliasIdx].Name)
		}
		rowid = vals[aliasIdx].Int()
		if _, exists, err := tbl.Get(rowidKey(rowid)); err != nil {
			return 0, err
		} else if exists {
			return 0, fmt.Errorf("%w: %s.%s", ErrUniqueIndex, t.Name, t.Cols[aliasIdx].Name)
		}
	default:
		mk, err := tbl.MaxKey()
		if err != nil {
			return 0, err
		}
		if mk == nil {
			rowid = 1
		} else {
			rowid = decodeRowidKey(mk) + 1
		}
		if aliasIdx >= 0 {
			vals[aliasIdx] = record.Int(rowid)
		}
	}

	// Index entries (with unique checks) before the row itself, so a
	// constraint failure leaves nothing half-written within this
	// statement's view (the enclosing transaction provides atomicity
	// anyway; this just keeps error paths tidy).
	for _, ix := range ixs {
		key, err := indexKey(nil, ix, t, vals, rowid)
		if err != nil {
			return 0, err
		}
		if err := checkUnique(p, ix, key); err != nil {
			return 0, err
		}
		if err := btree.Open(p, ix.Root).Insert(key, nil); err != nil {
			return 0, err
		}
	}
	if err := tbl.Insert(rowidKey(rowid), record.EncodeRow(nil, vals)); err != nil {
		return 0, err
	}
	return rowid, nil
}

// indexKey appends the memcomparable key of one index entry to dst.
func indexKey(dst []byte, ix *Index, t *Table, vals []record.Value, rowid int64) ([]byte, error) {
	for _, cn := range ix.Cols {
		k := t.ColIndex(cn)
		if k < 0 {
			return nil, fmt.Errorf("%w: index %s references %s", ErrNoColumn, ix.Name, cn)
		}
		dst = record.EncodeKey(dst, vals[k:k+1])
	}
	return record.EncodeKey(dst, []record.Value{record.Int(rowid)}), nil
}

// checkUnique fails with ErrUniqueIndex when ix is UNIQUE and already
// holds an entry whose value columns equal those of key (the index key
// a row is about to be stored under).
func checkUnique(p storage.Pager, ix *Index, key []byte) error {
	if !ix.Unique {
		return nil
	}
	prefix := key[:len(key)-rowidKeySuffixLen] // strip the rowid component
	cur := btree.Open(p, ix.Root).Cursor()
	ok, err := cur.Seek(prefix)
	if err == nil && ok && bytes.HasPrefix(cur.Key(), prefix) {
		err = fmt.Errorf("%w: index %s", ErrUniqueIndex, ix.Name)
	}
	return err
}

// conformRow applies column affinities to vals in place, enforces NOT
// NULL, and returns the rowid alias column's position (-1 if none).
func conformRow(t *Table, vals []record.Value) (alias int, err error) {
	if len(vals) != len(t.Cols) {
		return 0, fmt.Errorf("sql: table %s has %d columns but %d values", t.Name, len(t.Cols), len(vals))
	}
	alias = -1
	for i := range t.Cols {
		col := &t.Cols[i]
		vals[i] = applyAffinity(vals[i], col.aff)
		if col.NotNull && vals[i].IsNull() {
			return 0, fmt.Errorf("%w: %s.%s", ErrNotNull, t.Name, col.Name)
		}
		if col.RowidAlias {
			alias = i
		}
	}
	return alias, nil
}

// rowidKeySuffixLen is the encoded size of the trailing rowid component
// every index key carries (a record.Int below 2^53 has a fixed-width
// encoding); unique checks strip it to compare on value columns alone.
var rowidKeySuffixLen = len(record.EncodeKey(nil, []record.Value{record.Int(0)}))

// keyRowid returns the rowid an index key of t ends with. A rowid below
// 2^53 fills the fixed-width suffix, so only that is decoded, unless an
// INTEGER PRIMARY KEY lets t hold larger rowids.
func keyRowid(t *Table, key []byte) (int64, error) {
	tail := key[max(0, len(key)-rowidKeySuffixLen):]
	if slices.ContainsFunc(t.Cols, func(c Column) bool { return c.RowidAlias }) {
		tail = key
	}
	v, err := record.DecodeKey(tail)
	if err != nil || len(v) == 0 || v[len(v)-1].Type() != record.TypeInt {
		return 0, fmt.Errorf("%w: index key without a rowid suffix", record.ErrCorrupt)
	}
	return v[len(v)-1].Int(), nil
}

// deleteRowByID removes one row and its index entries.
func deleteRowByID(p storage.Pager, t *Table, ixs []*Index, rowid int64, vals []record.Value) error {
	tbl := btree.Open(p, t.Root)
	if _, err := tbl.Delete(rowidKey(rowid)); err != nil {
		return err
	}
	for _, ix := range ixs {
		key, err := indexKey(nil, ix, t, vals, rowid)
		if err != nil {
			return err
		}
		if _, err := btree.Open(p, ix.Root).Delete(key); err != nil {
			return err
		}
	}
	return nil
}

// matchRows materializes the rows of t matching the conjuncts of where
// (each returned row carries the hidden rowid as its last value).
func (w *writeEnv) matchRows(t *Table, sch *schema, where Expr) ([][]record.Value, error) {
	pager := w.pagerFor(t)
	cols := make([]colInfo, 0, len(t.Cols)+1)
	for _, c := range t.Cols {
		cols = append(cols, colInfo{table: strings.ToLower(t.Name), name: strings.ToLower(c.Name)})
	}
	cols = append(cols, colInfo{table: strings.ToLower(t.Name), name: "#rowid"})

	conds := splitAnd(where)
	var it iterator = pickAccessPath(t, sch, pager, conds, nil, w.ec)
	for _, cond := range conds {
		c, err := compileExpr(cond, &compileEnv{cols: cols, ec: w.ec})
		if err != nil {
			return nil, err
		}
		it = &filterIter{src: it, cond: c, ec: w.ec}
	}
	return drain(it)
}

func (w *writeEnv) pagerFor(t *Table) storage.Pager {
	if t.Temp {
		return w.ec.sidePager
	}
	return w.ec.mainPager
}

func (w *writeEnv) execDelete(s *DeleteStmt) error {
	t, sch, err := w.writeTable(s.Table)
	if err != nil {
		return err
	}
	rows, err := w.matchRows(t, sch, s.Where)
	if err != nil {
		return err
	}
	ixs := sch.tableIndexes(t.Name)
	for _, row := range rows {
		rowid := row[len(row)-1].Int()
		if err := deleteRowByID(w.tx, t, ixs, rowid, row[:len(row)-1]); err != nil {
			return err
		}
	}
	return nil
}

func (w *writeEnv) execUpdate(s *UpdateStmt) error {
	t, sch, err := w.writeTable(s.Table)
	if err != nil {
		return err
	}
	cols := make([]colInfo, 0, len(t.Cols)+1)
	for _, c := range t.Cols {
		cols = append(cols, colInfo{table: strings.ToLower(t.Name), name: strings.ToLower(c.Name)})
	}
	cols = append(cols, colInfo{table: strings.ToLower(t.Name), name: "#rowid"})
	env := &compileEnv{cols: cols, ec: w.ec}

	setIdx := make([]int, len(s.Cols))
	setExprs := make([]compiledExpr, len(s.Cols))
	for i, cn := range s.Cols {
		k := t.ColIndex(cn)
		if k < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, cn)
		}
		setIdx[i] = k
		ce, err := compileExpr(s.Exprs[i], env)
		if err != nil {
			return err
		}
		setExprs[i] = ce
	}

	rows, err := w.matchRows(t, sch, s.Where)
	if err != nil {
		return err
	}
	ixs := sch.tableIndexes(t.Name)
	for _, row := range rows {
		rowid := row[len(row)-1].Int()
		oldVals := row[:len(row)-1]
		newVals := append([]record.Value(nil), oldVals...)
		rc := &rowCtx{row: row, ec: w.ec}
		for i, ce := range setExprs {
			v, err := ce(rc)
			if err != nil {
				return err
			}
			newVals[setIdx[i]] = v
		}
		// The rowid stays put unless the rowid alias column moves it.
		alias, err := conformRow(t, newVals)
		if err != nil {
			return err
		}
		if alias < 0 || (newVals[alias].Type() == record.TypeInt && newVals[alias].Int() == rowid) {
			if err := updateRowByID(w.tx, t, ixs, rowid, oldVals, newVals); err != nil {
				return err
			}
			continue
		}
		if err := deleteRowByID(w.tx, t, ixs, rowid, oldVals); err != nil {
			return err
		}
		if _, err := insertRow(w.tx, t, ixs, newVals); err != nil {
			return err
		}
	}
	return nil
}

// updateRowByID rewrites the row stored under rowid from oldVals (its
// current values) to newVals. The table cell goes through btree.Insert,
// which overwrites it in its slot when the new cell is no larger. An
// index entry whose encoded key is unchanged is left alone; the others
// move only after every moved key has passed its unique check, so a
// constraint failure leaves the row and its index entries as they were.
func updateRowByID(p storage.Pager, t *Table, ixs []*Index, rowid int64, oldVals, newVals []record.Value) error {
	if _, err := conformRow(t, newVals); err != nil {
		return err
	}
	type move struct {
		ix             *Index
		oldKey, newKey []byte
	}
	var moves []move
	buf := make([]byte, 0, 256) // every old and new key, then the cell
	for _, ix := range ixs {
		oldKey, err := indexKey(buf, ix, t, oldVals, rowid)
		if err != nil {
			return err
		}
		newKey, err := indexKey(oldKey[len(oldKey):], ix, t, newVals, rowid)
		if err != nil {
			return err
		}
		buf = newKey[len(newKey):]
		if bytes.Equal(oldKey, newKey) {
			continue
		}
		if err := checkUnique(p, ix, newKey); err != nil {
			return err
		}
		moves = append(moves, move{ix, oldKey, newKey})
	}
	for _, m := range moves {
		tr := btree.Open(p, m.ix.Root)
		if _, err := tr.Delete(m.oldKey); err != nil {
			return err
		}
		if err := tr.Insert(m.newKey, nil); err != nil {
			return err
		}
	}
	return btree.Open(p, t.Root).Insert(rowidKey(rowid), record.EncodeRow(buf, newVals))
}

func (w *writeEnv) execCreateTable(s *CreateTableStmt) error {
	sch := w.ec.mainSchema
	if w.toSide {
		sch = w.ec.sideSchema
	}
	if sch.table(s.Name) != nil {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("%w: table %s", ErrExists, s.Name)
	}

	var cols []Column
	var rows [][]record.Value
	if s.AsSelect != nil {
		it, outCols, err := planSelect(s.AsSelect, w.ec)
		if err != nil {
			return err
		}
		rows, err = drain(it)
		if err != nil {
			return err
		}
		for _, c := range outCols {
			cols = append(cols, Column{Name: c.name})
		}
	} else {
		intPKs := 0
		for _, cd := range s.Cols {
			cols = append(cols, Column{
				Name:    cd.Name,
				Type:    cd.Type,
				NotNull: cd.NotNull,
				aff:     typeAffinity(cd.Type),
			})
		}
		for i, cd := range s.Cols {
			if cd.PrimaryKey && cols[i].aff == affInteger {
				cols[i].RowidAlias = true
				intPKs++
			}
		}
		if intPKs > 1 {
			return fmt.Errorf("sql: table %s has more than one INTEGER PRIMARY KEY", s.Name)
		}
	}

	root, err := btree.Create(w.tx)
	if err != nil {
		return err
	}
	t := &Table{Name: s.Name, Root: root, Cols: cols, Temp: w.toSide}
	if err := putTable(w.tx, t); err != nil {
		return err
	}
	sch.tables[strings.ToLower(t.Name)] = t

	// Non-integer PRIMARY KEY columns get an automatic unique index.
	if s.AsSelect == nil {
		for i, cd := range s.Cols {
			if cd.PrimaryKey && cols[i].aff != affInteger {
				ixRoot, err := btree.Create(w.tx)
				if err != nil {
					return err
				}
				ix := &Index{
					Name:   fmt.Sprintf("pk_%s_%s", s.Name, cd.Name),
					Table:  s.Name,
					Root:   ixRoot,
					Cols:   []string{cd.Name},
					Unique: true,
					Temp:   w.toSide,
				}
				if err := putIndex(w.tx, ix); err != nil {
					return err
				}
				sch.indexes[strings.ToLower(ix.Name)] = ix
			}
		}
	}

	for _, row := range rows {
		if len(row) > len(cols) {
			row = row[:len(cols)]
		}
		if _, err := insertRow(w.tx, t, nil, row); err != nil { // AS SELECT: no indexes yet
			return err
		}
	}
	return nil
}

func (w *writeEnv) execCreateIndex(s *CreateIndexStmt) error {
	t, sch, err := w.writeTable(s.Table)
	if err != nil {
		return err
	}
	if sch.index(s.Name) != nil {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("%w: index %s", ErrExists, s.Name)
	}
	for _, cn := range s.Cols {
		if t.ColIndex(cn) < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, cn)
		}
	}
	root, err := btree.Create(w.tx)
	if err != nil {
		return err
	}
	ix := &Index{Name: s.Name, Table: t.Name, Root: root, Cols: s.Cols, Unique: s.Unique, Temp: w.toSide}
	if err := putIndex(w.tx, ix); err != nil {
		return err
	}

	// Populate from the table.
	tree := btree.Open(w.tx, ix.Root)
	scan := newTableScan(w.tx, t, nil)
	for {
		row, err := scan.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		rowid := row[len(row)-1].Int()
		key, err := indexKey(nil, ix, t, row[:len(row)-1], rowid)
		if err != nil {
			return err
		}
		if err := checkUnique(w.tx, ix, key); err != nil {
			return err
		}
		if err := tree.Insert(key, nil); err != nil {
			return err
		}
	}
	sch.indexes[strings.ToLower(ix.Name)] = ix
	return nil
}

func (w *writeEnv) execDrop(s *DropStmt) error {
	sch := w.ec.mainSchema
	if w.toSide {
		sch = w.ec.sideSchema
	}
	if s.Index {
		ix := sch.index(s.Name)
		if ix == nil {
			if s.IfExists {
				return nil
			}
			return fmt.Errorf("%w: %s", ErrNoIndex, s.Name)
		}
		if err := btree.Open(w.tx, ix.Root).Drop(); err != nil {
			return err
		}
		if err := deleteCatalogEntry(w.tx, "index", ix.Name); err != nil {
			return err
		}
		delete(sch.indexes, strings.ToLower(ix.Name))
		return nil
	}
	t := sch.table(s.Name)
	if t == nil {
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNoTable, s.Name)
	}
	for _, ix := range sch.tableIndexes(t.Name) {
		if err := btree.Open(w.tx, ix.Root).Drop(); err != nil {
			return err
		}
		if err := deleteCatalogEntry(w.tx, "index", ix.Name); err != nil {
			return err
		}
		delete(sch.indexes, strings.ToLower(ix.Name))
	}
	if err := btree.Open(w.tx, t.Root).Drop(); err != nil {
		return err
	}
	if err := deleteCatalogEntry(w.tx, "table", t.Name); err != nil {
		return err
	}
	delete(sch.tables, strings.ToLower(t.Name))
	return nil
}

// BulkInsert inserts rows into a table through a single transaction
// (or the open explicit transaction), bypassing SQL parsing. It is the
// fast path for data loading (the TPC-H generator uses it).
func (c *Conn) BulkInsert(table string, rows [][]record.Value) error {
	toSide, err := c.tableIsTemp(table)
	if err != nil {
		return err
	}
	var stats ExecStats
	return c.retryWrite(&stats, func() error {
		w, err := c.newWriteEnv(toSide, nil, &stats)
		if err != nil {
			return err
		}
		err = func() error {
			t, sch, err := w.writeTable(table)
			if err != nil {
				return err
			}
			ixs := sch.tableIndexes(t.Name)
			for _, row := range rows {
				vals := append([]record.Value(nil), row...)
				if _, err := insertRow(w.tx, t, ixs, vals); err != nil {
					return err
				}
			}
			return nil
		}()
		return w.finish(err)
	})
}

func (c *Conn) tableIsTemp(name string) (bool, error) {
	rt, err := c.db.side.BeginRead()
	if err != nil {
		return false, err
	}
	defer rt.Close()
	sch, err := c.db.currentSchema(c.db.side, rt, rt.LSN(), true)
	if err != nil {
		return false, err
	}
	return sch.table(name) != nil, nil
}
