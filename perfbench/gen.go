package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rql"
	"rql/internal/core"
	"rql/internal/sql"
	"rql/internal/tpch"
)

// history builds the TPC-H database and its snapshot history in
// process, recording every generated order in the shadow model. It
// follows tpch.Load and tpch.Workload.Step statement for statement;
// it does not call them because the shadow needs the generated rows.
type history struct {
	conn  *sql.Conn
	gen   *tpch.Generator
	sh    *shadow
	clock time.Time
}

func newHistory(conn *sql.Conn, sf float64, seed int64) *history {
	return &history{
		conn:  conn,
		gen:   tpch.NewGenerator(sf, seed),
		sh:    newShadow(),
		clock: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

// load creates the schema and the initial population.
func (h *history) load() error {
	for _, ddl := range tpch.DDL {
		if err := h.conn.Exec(ddl, nil); err != nil {
			return err
		}
	}
	g := h.gen
	for _, t := range []struct {
		name string
		rows [][]rql.Value
	}{
		{"region", g.Region()}, {"nation", g.Nation()}, {"supplier", g.Supplier()},
		{"customer", g.Customer()}, {"part", g.Part()}, {"partsupp", g.PartSupp()},
	} {
		if err := h.conn.BulkInsert(t.name, t.rows); err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	if err := h.insertOrders(g.NextOrders(g.Orders())); err != nil {
		return err
	}
	return core.EnsureSnapIds(h.conn)
}

func (h *history) insertOrders(os []tpch.Order) error {
	if err := h.sh.addOrders(os); err != nil {
		return err
	}
	oRows := make([][]rql.Value, 0, len(os))
	var lRows [][]rql.Value
	for _, o := range os {
		oRows = append(oRows, o.Row)
		lRows = append(lRows, o.Lineitems...)
	}
	if err := h.conn.BulkInsert("orders", oRows); err != nil {
		return err
	}
	return h.conn.BulkInsert("lineitem", lRows)
}

// step declares one snapshot. With ops > 0 it is a refresh: RF2
// deletes the ops oldest orders and RF1 inserts ops new ones in the
// same transaction. With ops == 0 it is quiet.
func (h *history) step(ops int) (uint64, error) {
	if err := h.conn.Begin(); err != nil {
		return 0, err
	}
	if ops > 0 {
		cut := h.sh.minKey + int64(ops)
		err := h.conn.Exec(`DELETE FROM lineitem WHERE l_orderkey < ?`, nil, rql.Int(cut))
		if err == nil {
			err = h.conn.Exec(`DELETE FROM orders WHERE o_orderkey < ?`, nil, rql.Int(cut))
		}
		if err == nil {
			err = h.insertOrders(h.gen.NextOrders(ops))
		}
		if err != nil {
			_ = h.conn.Rollback() // the refresh error is the one to report
			return 0, err
		}
		h.sh.retire(cut)
	}
	id, err := h.conn.CommitWithSnapshot()
	if err != nil {
		return 0, err
	}
	if err := h.sh.declare(id); err != nil {
		return 0, err
	}
	h.clock = h.clock.Add(24 * time.Hour)
	return id, core.RecordSnapshot(h.conn, id, h.clock, fmt.Sprintf("snap-%d", id))
}

// refreshSQL renders one refresh as the statements a remote writer
// sends: the RF2 deletes below cut and multi-row RF1 inserts.
func refreshSQL(cut int64, os []tpch.Order) []string {
	var o, l strings.Builder
	o.WriteString("INSERT INTO orders VALUES ")
	l.WriteString("INSERT INTO lineitem VALUES ")
	nl := 0
	for i, ord := range os {
		if i > 0 {
			o.WriteByte(',')
		}
		writeTuple(&o, ord.Row)
		for _, li := range ord.Lineitems {
			if nl > 0 {
				l.WriteByte(',')
			}
			writeTuple(&l, li)
			nl++
		}
	}
	return []string{
		fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey < %d", cut),
		fmt.Sprintf("DELETE FROM orders WHERE o_orderkey < %d", cut),
		o.String(),
		l.String(),
	}
}

// writeTuple renders a row as a SQL value tuple whose literals parse
// back to the same values.
func writeTuple(b *strings.Builder, row []rql.Value) {
	b.WriteByte('(')
	for i, v := range row {
		if i > 0 {
			b.WriteByte(',')
		}
		switch v.Type() {
		case rql.Int(0).Type():
			b.WriteString(strconv.FormatInt(v.Int(), 10))
		case rql.Float(0).Type():
			f := strconv.FormatFloat(v.Float(), 'f', -1, 64)
			b.WriteString(f)
			if !strings.ContainsRune(f, '.') {
				b.WriteString(".0") // keep the literal a REAL
			}
		default:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(v.Text(), "'", "''"))
			b.WriteByte('\'')
		}
	}
	b.WriteByte(')')
}
