package sql

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"time"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/storage"
)

// iterator is the volcano-style row iterator every executor node
// implements. Next returns nil at end of stream. Returned rows must not
// be retained across calls unless copied.
type iterator interface {
	Next() ([]record.Value, error)
	Close() error
}

// rowidKey encodes a rowid as an order-preserving 8-byte table key.
func rowidKey(rowid int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(rowid)^(1<<63))
	return b[:]
}

func decodeRowidKey(key []byte) int64 {
	return int64(binary.BigEndian.Uint64(key) ^ (1 << 63))
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

// oneRowIter yields a single empty row (FROM-less SELECT).
type oneRowIter struct{ done bool }

func (i *oneRowIter) Next() ([]record.Value, error) {
	if i.done {
		return nil, nil
	}
	i.done = true
	return []record.Value{}, nil
}
func (i *oneRowIter) Close() error { return nil }

// tableScanIter scans a table in rowid order, emitting the columns
// followed by the hidden rowid. Only the columns in need are decoded
// (nil = all); the others read as NULL. Every row is decoded into the
// same buffer, which the next call overwrites.
type tableScanIter struct {
	cur     *btree.Cursor
	table   *Table
	need    []bool
	row     []record.Value
	started bool
}

func newTableScan(p storage.Pager, t *Table, need []bool) *tableScanIter {
	return &tableScanIter{
		cur:   btree.Open(p, t.Root).Cursor(),
		table: t,
		need:  need,
		row:   make([]record.Value, len(t.Cols)+1),
	}
}

func (i *tableScanIter) Next() ([]record.Value, error) {
	var ok bool
	var err error
	if !i.started {
		i.started = true
		ok, err = i.cur.First()
	} else {
		ok, err = i.cur.Next()
	}
	if err != nil || !ok {
		return nil, err
	}
	n := len(i.row) - 1
	if err := record.DecodeRowInto(i.row[:n], i.cur.Value(), i.need); err != nil {
		return nil, err
	}
	i.row[n] = record.Int(decodeRowidKey(i.cur.Key()))
	return i.row, nil
}
func (i *tableScanIter) Close() error { return nil }

// indexScanIter scans one index over a constant key range, fetching
// rows from the table. lo is the seek target; the scan continues
// while the index key starts with eqPrefix (equality scans) and, for
// range scans, while checkHi admits the first key column. As in
// tableScanIter, only the columns in need are decoded, into one
// reused row buffer.
type indexScanIter struct {
	pager    storage.Pager
	table    *Table
	idxCur   *btree.Cursor
	tbl      *btree.Tree
	lo       []byte
	eqPrefix []byte
	checkHi  func(v record.Value) bool // nil = no upper bound
	need     []bool
	row      []record.Value
	started  bool
}

func (i *indexScanIter) Next() ([]record.Value, error) {
	for {
		var ok bool
		var err error
		if !i.started {
			i.started = true
			ok, err = i.idxCur.Seek(i.lo)
		} else {
			ok, err = i.idxCur.Next()
		}
		if err != nil || !ok {
			return nil, err
		}
		key := i.idxCur.Key()
		if i.eqPrefix != nil && !bytes.HasPrefix(key, i.eqPrefix) {
			return nil, nil
		}
		decoded, err := record.DecodeKey(key)
		if err != nil {
			return nil, err
		}
		if i.checkHi != nil && len(decoded) > 0 && !i.checkHi(decoded[0]) {
			return nil, nil
		}
		rowid := decoded[len(decoded)-1].Int()
		found, err := fetchRow(i.row, i.tbl, rowid, i.need)
		if err != nil {
			return nil, err
		}
		if !found {
			continue // index points at a vanished row: skip defensively
		}
		return i.row, nil
	}
}
func (i *indexScanIter) Close() error { return nil }

// fetchRow loads the row with the given rowid into dst, which holds
// the table's columns followed by the hidden rowid. Only the columns in
// need are decoded (nil = all). It reports false when no such row
// exists.
func fetchRow(dst []record.Value, tbl *btree.Tree, rowid int64, need []bool) (bool, error) {
	v, found, err := tbl.Get(rowidKey(rowid))
	if err != nil || !found {
		return false, err
	}
	n := len(dst) - 1
	if err := record.DecodeRowInto(dst[:n], v, need); err != nil {
		return false, err
	}
	dst[n] = record.Int(rowid)
	return true, nil
}

// ---------------------------------------------------------------------------
// Filters and projection
// ---------------------------------------------------------------------------

type filterIter struct {
	src  iterator
	cond compiledExpr
	ec   *execCtx
	rc   rowCtx // reused evaluation context
}

func (i *filterIter) Next() ([]record.Value, error) {
	for {
		row, err := i.src.Next()
		if err != nil || row == nil {
			return nil, err
		}
		i.rc = rowCtx{row: row, ec: i.ec}
		v, err := i.cond(&i.rc)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.Truthy() {
			return row, nil
		}
	}
}
func (i *filterIter) Close() error { return i.src.Close() }

type projectIter struct {
	src   iterator
	exprs []compiledExpr
	ec    *execCtx
}

func (i *projectIter) Next() ([]record.Value, error) {
	row, err := i.src.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make([]record.Value, len(i.exprs))
	rc := &rowCtx{row: row, ec: i.ec}
	for k, e := range i.exprs {
		v, err := e(rc)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}
func (i *projectIter) Close() error { return i.src.Close() }

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

// autoIndexJoin joins outer rows against an inner side that has no
// usable native index by first building a transient covering index — a
// real scratch B-tree keyed by the join column with the full inner row
// as payload, just like SQLite's "automatic index" — and then probing
// it per outer row. The build time is recorded in ExecStats.AutoIndex,
// which Figure 9's index-creation bars measure.
type autoIndexJoin struct {
	outer     iterator
	innerCols int
	outerKey  compiledExpr
	cond      compiledExpr // residual ON condition (may be nil)
	ec        *execCtx

	// buildRows materializes the inner side on first use.
	buildRows func() ([][]record.Value, error)
	innerKey  compiledExpr

	built    bool
	buildErr error
	scratch  *storage.Tx
	tree     *btree.Tree

	outerRow []record.Value
	prefix   []byte
	cur      *btree.Cursor
}

func (i *autoIndexJoin) build() error {
	start := time.Now()
	defer func() { i.ec.stats.AutoIndex += time.Since(start) }()
	rows, err := i.buildRows()
	if err != nil {
		return err
	}
	// The transient index lives in a scratch in-memory store so its
	// build cost has the same page/btree profile as a native index.
	store := storage.NewStore()
	tx, err := store.Begin()
	if err != nil {
		return err
	}
	root, err := btree.Create(tx)
	if err != nil {
		return err
	}
	i.scratch = tx
	i.tree = btree.Open(tx, root)
	var key []byte
	var val []byte
	for seq, row := range rows {
		kv, err := i.innerKey(&rowCtx{row: row, ec: i.ec})
		if err != nil {
			return err
		}
		if kv.IsNull() {
			continue // NULL keys never match an equi-join
		}
		key = record.EncodeKey(key[:0], []record.Value{kv, record.Int(int64(seq))})
		val = record.EncodeRow(val[:0], row)
		if err := i.tree.Insert(key, val); err != nil {
			return err
		}
	}
	return nil
}

func (i *autoIndexJoin) Next() ([]record.Value, error) {
	if !i.built {
		i.built = true
		i.buildErr = i.build()
	}
	if i.buildErr != nil {
		return nil, i.buildErr
	}
	for {
		if i.outerRow == nil {
			row, err := i.outer.Next()
			if err != nil || row == nil {
				return nil, err
			}
			kv, err := i.outerKey(&rowCtx{row: row, ec: i.ec})
			if err != nil {
				return nil, err
			}
			if kv.IsNull() {
				continue
			}
			i.outerRow = row
			i.prefix = record.EncodeKey(nil, []record.Value{kv})
			i.cur = i.tree.Cursor()
			if ok, err := i.cur.Seek(i.prefix); err != nil {
				return nil, err
			} else if !ok {
				i.outerRow = nil
				continue
			}
		} else {
			if ok, err := i.cur.Next(); err != nil {
				return nil, err
			} else if !ok {
				i.outerRow = nil
				continue
			}
		}
		if !bytes.HasPrefix(i.cur.Key(), i.prefix) {
			i.outerRow = nil
			continue
		}
		inner, err := record.DecodeRow(i.cur.Value())
		if err != nil {
			return nil, err
		}
		joined := joinRows(i.outerRow, inner)
		if i.cond != nil {
			v, err := i.cond(&rowCtx{row: joined, ec: i.ec})
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Truthy() {
				continue
			}
		}
		return joined, nil
	}
}

func (i *autoIndexJoin) Close() error {
	if i.scratch != nil {
		i.scratch.Rollback()
		i.scratch = nil
	}
	return i.outer.Close()
}

// indexJoinIter joins outer rows against an inner base table through a
// native index: per outer row it probes the index with the join key.
type indexJoinIter struct {
	outer    iterator
	pager    storage.Pager
	table    *Table
	index    *Index
	outerKey compiledExpr
	cond     compiledExpr
	ec       *execCtx

	need  []bool         // inner columns to decode (nil = all)
	inner []record.Value // reused inner row buffer

	outerRow []record.Value
	idxCur   *btree.Cursor
	prefix   []byte
	tbl      *btree.Tree
}

func (i *indexJoinIter) Next() ([]record.Value, error) {
	for {
		if i.outerRow == nil {
			row, err := i.outer.Next()
			if err != nil || row == nil {
				return nil, err
			}
			kv, err := i.outerKey(&rowCtx{row: row, ec: i.ec})
			if err != nil {
				return nil, err
			}
			if kv.IsNull() {
				continue
			}
			i.outerRow = row
			i.prefix = record.EncodeKey(nil, []record.Value{kv})
			i.idxCur = btree.Open(i.pager, i.index.Root).Cursor()
			if ok, err := i.idxCur.Seek(i.prefix); err != nil {
				return nil, err
			} else if !ok {
				i.outerRow = nil
				continue
			}
		} else {
			if ok, err := i.idxCur.Next(); err != nil {
				return nil, err
			} else if !ok {
				i.outerRow = nil
				continue
			}
		}
		key := i.idxCur.Key()
		if !bytes.HasPrefix(key, i.prefix) {
			i.outerRow = nil
			continue
		}
		decoded, err := record.DecodeKey(key)
		if err != nil {
			return nil, err
		}
		rowid := decoded[len(decoded)-1].Int()
		found, err := fetchRow(i.inner, i.tbl, rowid, i.need)
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		joined := joinRows(i.outerRow, i.inner)
		if i.cond != nil {
			v, err := i.cond(&rowCtx{row: joined, ec: i.ec})
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Truthy() {
				continue
			}
		}
		return joined, nil
	}
}
func (i *indexJoinIter) Close() error { return i.outer.Close() }

// nlJoinIter is the fallback nested-loop join over a materialized inner.
type nlJoinIter struct {
	outer     iterator
	inner     [][]record.Value
	innerCols int
	cond      compiledExpr
	leftOuter bool
	ec        *execCtx

	outerRow   []record.Value
	innerIdx   int
	emittedAny bool
}

func (i *nlJoinIter) Next() ([]record.Value, error) {
	for {
		if i.outerRow == nil {
			row, err := i.outer.Next()
			if err != nil || row == nil {
				return nil, err
			}
			i.outerRow = row
			i.innerIdx = 0
			i.emittedAny = false
		}
		for i.innerIdx < len(i.inner) {
			inner := i.inner[i.innerIdx]
			i.innerIdx++
			joined := joinRows(i.outerRow, inner)
			if i.cond != nil {
				v, err := i.cond(&rowCtx{row: joined, ec: i.ec})
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !v.Truthy() {
					continue
				}
			}
			i.emittedAny = true
			return joined, nil
		}
		if i.leftOuter && !i.emittedAny {
			nulls := make([]record.Value, i.innerCols)
			joined := joinRows(i.outerRow, nulls)
			i.outerRow = nil
			return joined, nil
		}
		i.outerRow = nil
	}
}
func (i *nlJoinIter) Close() error { return i.outer.Close() }

func joinRows(a, b []record.Value) []record.Value {
	out := make([]record.Value, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// drain materializes an iterator. Each row is copied: scans hand out
// one reused buffer.
func drain(it iterator) ([][]record.Value, error) {
	defer it.Close()
	var rows [][]record.Value
	for {
		row, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return rows, nil
		}
		rows = append(rows, slices.Clone(row))
	}
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

// aggSpec describes one aggregate call in the statement.
type aggSpec struct {
	call     *FuncCall
	arg      compiledExpr // nil for count(*)
	isMinMax bool
}

// aggregateIter groups its input and computes aggregates. Output rows
// are the group's representative input row extended with the aggregate
// results, so post-aggregation expressions can reference both bare
// columns (SQLite semantics: values from the representative row, which
// for a single min/max aggregate is the row that set the extreme) and
// aggregate slots.
type aggregateIter struct {
	src       iterator
	groupBy   []compiledExpr
	specs     []aggSpec
	inputCols int
	ec        *execCtx
	// emitEmptyGroup: aggregate query with no GROUP BY emits one row
	// even on empty input.
	emitEmptyGroup bool

	done   bool
	out    [][]record.Value
	outIdx int
}

func (i *aggregateIter) Next() ([]record.Value, error) {
	if !i.done {
		if err := i.run(); err != nil {
			return nil, err
		}
		i.done = true
	}
	if i.outIdx >= len(i.out) {
		return nil, nil
	}
	row := i.out[i.outIdx]
	i.outIdx++
	return row, nil
}

func (i *aggregateIter) Close() error { return i.src.Close() }

type aggGroup struct {
	rep    []record.Value
	states []aggState
}

func (i *aggregateIter) run() error {
	groups := make(map[string]*aggGroup)
	var order []string

	// The representative-row refinement applies when exactly one
	// aggregate exists and it is min or max.
	repFollowsExtreme := len(i.specs) == 1 && i.specs[0].isMinMax

	// One evaluation context and one key buffer serve every input row;
	// the key is copied into a string only when it opens a new group.
	rc := &rowCtx{ec: i.ec}
	var keyBuf []byte
	for {
		row, err := i.src.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		rc.row = row
		keyBuf = keyBuf[:0]
		for _, g := range i.groupBy {
			v, err := g(rc)
			if err != nil {
				return err
			}
			keyBuf = record.EncodeKey(keyBuf, []record.Value{v})
		}
		grp := groups[string(keyBuf)]
		if grp == nil {
			key := string(keyBuf)
			grp = &aggGroup{rep: slices.Clone(row)}
			for _, spec := range i.specs {
				st, err := newAggState(spec.call.Name)
				if err != nil {
					return err
				}
				if spec.call.Distinct {
					st = newDistinctAgg(st)
				}
				grp.states = append(grp.states, st)
			}
			groups[key] = grp
			order = append(order, key)
		}
		for k, spec := range i.specs {
			var v record.Value
			if spec.arg == nil {
				v = record.Int(1) // count(*): any non-null
			} else {
				v, err = spec.arg(rc)
				if err != nil {
					return err
				}
			}
			becameExtreme := grp.states[k].step(v)
			if becameExtreme && repFollowsExtreme {
				grp.rep = append(grp.rep[:0], row...)
			}
		}
	}

	if len(groups) == 0 && i.emitEmptyGroup {
		grp := &aggGroup{rep: make([]record.Value, i.inputCols)}
		for k := range grp.rep {
			grp.rep[k] = record.Null()
		}
		for _, spec := range i.specs {
			st, err := newAggState(spec.call.Name)
			if err != nil {
				return err
			}
			if spec.call.Distinct {
				st = newDistinctAgg(st)
			}
			grp.states = append(grp.states, st)
		}
		groups[""] = grp
		order = append(order, "")
	}

	for _, key := range order {
		grp := groups[key]
		row := make([]record.Value, i.inputCols+len(i.specs))
		copy(row, grp.rep)
		for k, st := range grp.states {
			row[i.inputCols+k] = st.final()
		}
		i.out = append(i.out, row)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Distinct, sort, limit
// ---------------------------------------------------------------------------

// distinctIter deduplicates projected rows, carrying the source row
// alongside so later sort stages can still compute their keys.
type pairRow struct {
	proj []record.Value
	src  []record.Value
}

type distinctPairIter struct {
	src  *projectPairIter
	seen map[string]bool
}

func (i *distinctPairIter) Next() (*pairRow, error) {
	if i.seen == nil {
		i.seen = make(map[string]bool)
	}
	for {
		pr, err := i.src.Next()
		if err != nil || pr == nil {
			return nil, err
		}
		key := string(record.EncodeKey(nil, pr.proj))
		if i.seen[key] {
			continue
		}
		i.seen[key] = true
		return pr, nil
	}
}
func (i *distinctPairIter) Close() error { return i.src.Close() }

// projectPairIter computes the projection while retaining the source row.
type projectPairIter struct {
	src   iterator
	exprs []compiledExpr
	ec    *execCtx
}

func (i *projectPairIter) Next() (*pairRow, error) {
	row, err := i.src.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make([]record.Value, len(i.exprs))
	rc := &rowCtx{row: row, ec: i.ec}
	for k, e := range i.exprs {
		v, err := e(rc)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return &pairRow{proj: out, src: row}, nil
}
func (i *projectPairIter) Close() error { return i.src.Close() }

// finalIter adapts the pair stream to the iterator interface, applying
// ORDER BY (materializing), LIMIT and OFFSET.
type finalIter struct {
	pairs interface {
		Next() (*pairRow, error)
		Close() error
	}
	orderBy []compiledExpr // evaluated against the source row
	desc    []bool
	// project-row ordinals: when an ORDER BY term is a literal integer
	// N, sort by projected column N (1-based). ordinal[k] >= 0 wins
	// over orderBy[k].
	ordinal []int
	limit   int64 // -1 = no limit
	offset  int64
	ec      *execCtx

	sorted  bool
	rows    []*pairRow
	keys    [][]record.Value
	idx     int
	emitted int64
}

func (i *finalIter) Next() ([]record.Value, error) {
	if len(i.orderBy) == 0 {
		// Streaming path.
		for i.offset > 0 {
			pr, err := i.pairs.Next()
			if err != nil || pr == nil {
				return nil, err
			}
			i.offset--
		}
		if i.limit >= 0 && i.emitted >= i.limit {
			return nil, nil
		}
		pr, err := i.pairs.Next()
		if err != nil || pr == nil {
			return nil, err
		}
		i.emitted++
		return pr.proj, nil
	}
	if !i.sorted {
		if err := i.sortAll(); err != nil {
			return nil, err
		}
		i.sorted = true
		i.idx = int(i.offset)
	}
	if i.idx >= len(i.rows) {
		return nil, nil
	}
	if i.limit >= 0 && i.emitted >= i.limit {
		return nil, nil
	}
	row := i.rows[i.idx].proj
	i.idx++
	i.emitted++
	return row, nil
}

func (i *finalIter) sortAll() error {
	for {
		pr, err := i.pairs.Next()
		if err != nil {
			return err
		}
		if pr == nil {
			break
		}
		key := make([]record.Value, len(i.orderBy))
		rc := &rowCtx{row: pr.src, ec: i.ec}
		for k, e := range i.orderBy {
			if i.ordinal[k] >= 0 {
				key[k] = pr.proj[i.ordinal[k]]
				continue
			}
			v, err := e(rc)
			if err != nil {
				return err
			}
			key[k] = v
		}
		// The source row is not retained: its buffer may belong to a
		// scan that overwrites it on the next call.
		pr.src = nil
		i.rows = append(i.rows, pr)
		i.keys = append(i.keys, key)
	}
	// Sort indices so rows and keys stay aligned.
	idxs := make([]int, len(i.rows))
	for k := range idxs {
		idxs[k] = k
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		ka, kb := i.keys[idxs[a]], i.keys[idxs[b]]
		for t := range ka {
			c := record.Compare(ka[t], kb[t])
			if c == 0 {
				continue
			}
			if i.desc[t] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	rows := make([]*pairRow, len(idxs))
	for k, id := range idxs {
		rows[k] = i.rows[id]
	}
	i.rows = rows
	return nil
}

func (i *finalIter) Close() error { return i.pairs.Close() }

// passPairIter wraps a pair source without deduplication.
type passPairIter struct{ src *projectPairIter }

func (i *passPairIter) Next() (*pairRow, error) { return i.src.Next() }
func (i *passPairIter) Close() error            { return i.src.Close() }

// sliceIter replays materialized rows (used for subqueries in FROM).
type sliceIter struct {
	rows [][]record.Value
	idx  int
}

func (i *sliceIter) Next() ([]record.Value, error) {
	if i.idx >= len(i.rows) {
		return nil, nil
	}
	r := i.rows[i.idx]
	i.idx++
	return r, nil
}
func (i *sliceIter) Close() error { return nil }
