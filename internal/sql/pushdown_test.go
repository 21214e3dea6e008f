package sql

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"rql/internal/record"
)

// wideRow models one row of the "wide" test table: a few small columns
// the queries read, beside a long pad column that spreads the table over
// many leaf pages and that column pruning must skip.
type wideRow struct {
	k, grp int
	st     string // one byte, like TPC-H o_orderstatus
	note   string
	pad    string
	val    float64
}

const wideRows = 1200

func makeWide() []wideRow {
	rows := make([]wideRow, 0, wideRows)
	for k := 1; k <= wideRows; k++ {
		rows = append(rows, wideRow{
			k:    k,
			grp:  k % 7,
			st:   string("OFP"[k%3]),
			note: fmt.Sprintf("n%02d", k%13),
			pad:  fmt.Sprintf("%s-%d", strings.Repeat(string(rune('a'+k%26)), 100), k),
			val:  float64(k) * 1.5,
		})
	}
	return rows
}

// tag is the small second table of the join cases: label i for keys
// 1..8 (grp values 1..6 appear, 0 does not).
func tagLabel(k int) string { return fmt.Sprintf("tag%d", k) }

const tagRows = 8

func loadWide(tb testing.TB, c *Conn, rows []wideRow) {
	tb.Helper()
	exec := func(sql string, params ...record.Value) {
		if err := c.Exec(sql, nil, params...); err != nil {
			tb.Fatalf("Exec(%q): %v", sql, err)
		}
	}
	exec(`CREATE TABLE wide (k INTEGER, grp INTEGER, st TEXT, note TEXT, pad TEXT, val REAL)`)
	exec(`CREATE TABLE tag (k INTEGER, label TEXT)`)
	exec(`BEGIN`)
	for _, r := range rows {
		exec(`INSERT INTO wide VALUES (?, ?, ?, ?, ?, ?)`,
			record.Int(int64(r.k)), record.Int(int64(r.grp)), record.Text(r.st),
			record.Text(r.note), record.Text(r.pad), record.Float(r.val))
	}
	for k := 1; k <= tagRows; k++ {
		exec(`INSERT INTO tag VALUES (?, ?)`, record.Int(int64(k)), record.Text(tagLabel(k)))
	}
	exec(`COMMIT`)
}

// readCase is one SELECT and the rows the model says it must return,
// in order (every case orders its output or returns one row).
type readCase struct {
	name string
	sql  string // "%s" is replaced by "" or "AS OF <id>"
	want func(rows []wideRow) []string
}

func filterWide(rows []wideRow, keep func(wideRow) bool) []wideRow {
	var out []wideRow
	for _, r := range rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

var readCases = []readCase{
	{
		name: "order by a non-projected column",
		sql:  `SELECT %s k FROM wide WHERE grp = 3 ORDER BY pad DESC, k`,
		want: func(rows []wideRow) []string {
			sel := filterWide(rows, func(r wideRow) bool { return r.grp == 3 })
			sort.SliceStable(sel, func(a, b int) bool {
				if sel[a].pad != sel[b].pad {
					return sel[a].pad > sel[b].pad
				}
				return sel[a].k < sel[b].k
			})
			var out []string
			for _, r := range sel {
				out = append(out, fmt.Sprint(r.k))
			}
			return out
		},
	},
	{
		name: "from subquery",
		sql:  `SELECT %s x.k, x.note, x.val FROM (SELECT * FROM wide WHERE grp = 1) x WHERE x.k > 100 ORDER BY x.k`,
		want: func(rows []wideRow) []string {
			var out []string
			for _, r := range filterWide(rows, func(r wideRow) bool { return r.grp == 1 && r.k > 100 }) {
				out = append(out, fmt.Sprintf("%d|%s|%s", r.k, r.note, record.Float(r.val)))
			}
			return out
		},
	},
	{
		name: "left join with the wide table inner",
		sql:  `SELECT %s t.label, w.k, w.note FROM tag t LEFT JOIN wide w ON w.k = t.k * 97 ORDER BY t.k`,
		want: func(rows []wideRow) []string {
			var out []string
			for k := 1; k <= tagRows; k++ {
				line := tagLabel(k) + "|NULL|NULL"
				for _, r := range rows {
					if r.k == k*97 {
						line = fmt.Sprintf("%s|%d|%s", tagLabel(k), r.k, r.note)
					}
				}
				out = append(out, line)
			}
			return out
		},
	},
	{
		name: "left join with the wide table outer",
		sql:  `SELECT %s w.k, t.label FROM wide w LEFT JOIN tag t ON t.k = w.grp WHERE w.k <= 30 ORDER BY w.k`,
		want: func(rows []wideRow) []string {
			var out []string
			for _, r := range filterWide(rows, func(r wideRow) bool { return r.k <= 30 }) {
				label := "NULL"
				if r.grp >= 1 && r.grp <= tagRows {
					label = tagLabel(r.grp)
				}
				out = append(out, fmt.Sprintf("%d|%s", r.k, label))
			}
			return out
		},
	},
	{
		name: "cross join",
		sql:  `SELECT %s t.k, w.k, w.st FROM tag t, wide w WHERE t.k <= 2 AND w.grp = 5 AND w.k < 200 ORDER BY t.k, w.k`,
		want: func(rows []wideRow) []string {
			var out []string
			for tk := 1; tk <= 2; tk++ {
				for _, r := range filterWide(rows, func(r wideRow) bool { return r.grp == 5 && r.k < 200 }) {
					out = append(out, fmt.Sprintf("%d|%d|%s", tk, r.k, r.st))
				}
			}
			return out
		},
	},
	{
		name: "automatic-index join",
		sql:  `SELECT %s t.label, w.k, w.note FROM tag t, wide w WHERE t.k = w.grp AND t.label <> 'tag3' ORDER BY w.k`,
		want: func(rows []wideRow) []string {
			var out []string
			for _, r := range filterWide(rows, func(r wideRow) bool { return r.grp >= 1 && r.grp != 3 }) {
				out = append(out, fmt.Sprintf("%s|%d|%s", tagLabel(r.grp), r.k, r.note))
			}
			return out
		},
	},
	{
		name: "group by with a max representative",
		sql:  `SELECT %s grp, MAX(k), note, pad FROM wide GROUP BY grp ORDER BY grp`,
		want: func(rows []wideRow) []string {
			best := map[int]wideRow{}
			for _, r := range rows {
				if b, ok := best[r.grp]; !ok || r.k > b.k {
					best[r.grp] = r
				}
			}
			var out []string
			for g := 0; g < 7; g++ {
				if b, ok := best[g]; ok {
					out = append(out, fmt.Sprintf("%d|%d|%s|%s", g, b.k, b.note, b.pad))
				}
			}
			return out
		},
	},
	{
		name: "group by with a min representative",
		sql:  `SELECT %s note, MIN(val), k FROM wide WHERE st = 'F' GROUP BY note ORDER BY note`,
		want: func(rows []wideRow) []string {
			best := map[string]wideRow{}
			for _, r := range filterWide(rows, func(r wideRow) bool { return r.st == "F" }) {
				if b, ok := best[r.note]; !ok || r.val < b.val {
					best[r.note] = r
				}
			}
			var notes []string
			for n := range best {
				notes = append(notes, n)
			}
			sort.Strings(notes)
			var out []string
			for _, n := range notes {
				out = append(out, fmt.Sprintf("%s|%s|%d", n, record.Float(best[n].val), best[n].k))
			}
			return out
		},
	},
	{
		name: "count over a pruned scan",
		sql:  `SELECT %s COUNT(*), SUM(val) FROM wide WHERE st = 'O'`,
		want: func(rows []wideRow) []string {
			sel := filterWide(rows, func(r wideRow) bool { return r.st == "O" })
			sum := 0.0
			for _, r := range sel {
				sum += r.val
			}
			return []string{fmt.Sprintf("%d|%s", len(sel), record.Float(sum))}
		},
	},
}

func checkReads(t *testing.T, c *Conn, asOf string, rows []wideRow) {
	t.Helper()
	for _, rc := range readCases {
		got := q(t, c, fmt.Sprintf(rc.sql, asOf))
		want := rc.want(rows)
		if !slices.Equal(got, want) {
			t.Errorf("%s (%q): got %d rows, want %d\n got: %.400v\nwant: %.400v",
				rc.name, asOf, len(got), len(want), got, want)
		}
	}
}

// TestScanBufferReuseRetention guards every consumer that keeps rows
// past the next call of a scan that reuses its row buffer: sorts,
// subqueries, join inners, aggregate representatives, INSERT ...
// SELECT, UPDATE/DELETE matching and index population. Each case is
// checked against a model of the table, at the current state and AS OF
// a snapshot, over a table that spans many leaf pages.
func TestScanBufferReuseRetention(t *testing.T) {
	c := testConn(t)
	rows := makeWide()
	loadWide(t, c, rows)
	mustExec(t, c, `BEGIN; COMMIT WITH SNAPSHOT`)
	snap := rows

	if n := q(t, c, `SELECT COUNT(*) FROM wide`); n[0] != fmt.Sprint(wideRows) {
		t.Fatalf("loaded %v rows", n)
	}

	// UPDATE/DELETE ... WHERE match their rows through a scan; every
	// matched row must be rewritten from its own values.
	mustExec(t, c, `UPDATE wide SET note = note || '-u', val = val + k WHERE grp = 6`)
	mustExec(t, c, `DELETE FROM wide WHERE st = 'P' AND k % 5 = 0`)
	var cur []wideRow
	for _, r := range rows {
		if r.st == "P" && r.k%5 == 0 {
			continue
		}
		if r.grp == 6 {
			r.note += "-u"
			r.val += float64(r.k)
		}
		cur = append(cur, r)
	}

	// CREATE INDEX populates from a full scan; the index must find
	// every row it covers.
	mustExec(t, c, `CREATE INDEX wide_note ON wide (note)`)
	plan := strings.Join(q(t, c, `EXPLAIN SELECT k FROM wide WHERE note = 'n05-u'`), "\n")
	if !strings.Contains(plan, "SEARCH TABLE wide USING INDEX (EQUALITY) (2 of 6 columns)") {
		t.Errorf("point query should search the new index decoding 2 of 6 columns:\n%s", plan)
	}
	for _, note := range []string{"n05", "n05-u", "n00"} {
		var want []string
		for _, r := range cur {
			if r.note == note {
				want = append(want, fmt.Sprintf("%d|%s", r.k, r.st))
			}
		}
		got := q(t, c, `SELECT k, st FROM wide WHERE note = ? ORDER BY k`, record.Text(note))
		if !slices.Equal(got, want) {
			t.Errorf("index lookup note=%s: got %v, want %v", note, got, want)
		}
	}

	// INSERT ... SELECT materializes its source before writing.
	mustExec(t, c, `CREATE TABLE copyw (k INTEGER, pad TEXT)`)
	mustExec(t, c, `INSERT INTO copyw SELECT k, pad FROM wide WHERE grp = 4`)
	var wantCopy []string
	for _, r := range cur {
		if r.grp == 4 {
			wantCopy = append(wantCopy, fmt.Sprintf("%d|%s", r.k, r.pad))
		}
	}
	if got := q(t, c, `SELECT k, pad FROM copyw ORDER BY k`); !slices.Equal(got, wantCopy) {
		t.Errorf("INSERT ... SELECT copied %d rows, want %d", len(got), len(wantCopy))
	}

	checkReads(t, c, "", cur)
	checkReads(t, c, "AS OF 1", snap)
}

// TestScanProjectionExplain checks that EXPLAIN reports how many
// columns each scan decodes.
func TestScanProjectionExplain(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE big (k INTEGER, v TEXT, w TEXT)`)
	mustExec(t, c, `INSERT INTO big VALUES (1, 'x', 'y')`)
	for sql, want := range map[string]string{
		`EXPLAIN SELECT COUNT(*) FROM big`:                    "SCAN TABLE big (0 of 3 columns)",
		`EXPLAIN SELECT COUNT(*) FROM big WHERE v = 'x'`:      "SCAN TABLE big (1 of 3 columns)",
		`EXPLAIN SELECT * FROM big`:                           "SCAN TABLE big (3 of 3 columns)",
		`EXPLAIN SELECT k, v, w FROM big`:                     "SCAN TABLE big (3 of 3 columns)",
		`EXPLAIN SELECT b.k FROM big b ORDER BY b.w`:          "SCAN TABLE big (2 of 3 columns)",
		`EXPLAIN SELECT v FROM big GROUP BY w HAVING MAX(k)`:  "SCAN TABLE big (3 of 3 columns)",
		`EXPLAIN SELECT rowid FROM big WHERE rowid > 0`:       "SCAN TABLE big (0 of 3 columns)",
		`EXPLAIN SELECT upper(v) FROM big WHERE w LIKE 'y%'`:  "SCAN TABLE big (2 of 3 columns)",
		`EXPLAIN SELECT CASE WHEN k = 1 THEN v END FROM big`:  "SCAN TABLE big (2 of 3 columns)",
		`EXPLAIN SELECT k FROM big WHERE v IN ('x', w)`:       "SCAN TABLE big (3 of 3 columns)",
		`EXPLAIN SELECT k FROM big WHERE v BETWEEN 'a' AND w`: "SCAN TABLE big (3 of 3 columns)",
	} {
		if plan := strings.Join(q(t, c, sql), "\n"); !strings.Contains(plan, want) {
			t.Errorf("%s: plan lacks %q:\n%s", sql, want, plan)
		}
	}
}

// TestPrunedScanAllocations is a deterministic allocation count, not a
// timing: a count over a text predicate must allocate less than one
// object per scanned row. The predicate column holds one-byte strings
// (like TPC-H o_orderstatus), which Go converts without allocating, so
// any per-row allocation left would come from the scan machinery: the
// row buffer, the header walk, decoding the unreferenced pad and note
// columns, or the filter's evaluation context.
func TestPrunedScanAllocations(t *testing.T) {
	c := testConn(t)
	loadWide(t, c, makeWide())
	const query = `SELECT COUNT(*) FROM wide WHERE st = 'x'`
	if got := q(t, c, query); got[0] != "0" {
		t.Fatalf("count = %v", got)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.Query(query); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= wideRows {
		t.Errorf("%.0f allocations for a %d-row scan: want fewer than one per row", allocs, wideRows)
	}
	t.Logf("%.0f allocations for a %d-row scan", allocs, wideRows)
}

// BenchmarkTableScan measures a pruned scan of a multi-page table:
// COUNT(*) over a one-column text predicate. Run with -benchmem (it
// reports allocs/op itself) to watch the per-row allocation tax.
func BenchmarkTableScan(b *testing.B) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	c := db.Conn()
	loadWide(b, c, makeWide())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(`SELECT COUNT(*) FROM wide WHERE st = 'O'`); err != nil {
			b.Fatal(err)
		}
	}
}
