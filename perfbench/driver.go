package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rql"
	"rql/client"
	"rql/internal/retro"
)

// The paper's Table 1 queries, as the reader sends them. Qq_collate
// carries a current_snapshot() tag so results prove which snapshot
// produced each row; Qq_agg keeps only its count column so the
// (cn,MAX) fold is checkable (as in the repo's Figure 12/13 runs);
// Qq_int and the archive's count are narrowed to an o_orderkey range.
const (
	qqIO       = `SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'`
	qqCollate  = `SELECT o_orderkey, current_snapshot() AS sid FROM orders WHERE o_orderdate < '%s'`
	qqAggCn    = `SELECT o_custkey, COUNT(*) AS cn FROM orders GROUP BY o_custkey`
	qqIntRange = `SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d`
	qqRange    = `SELECT COUNT(*) FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d`
	asofPoint  = `SELECT o_orderkey, o_custkey, current_snapshot() AS sid FROM orders WHERE o_orderkey = ?`
)

// mechRunner is what both the wire client and an in-process rql.Conn
// offer, so one request can be sent down either path.
type mechRunner interface {
	ExecAsOf(sqlText string, snap uint64, cb rql.RowCallback, params ...rql.Value) error
	CollateData(qs, qq, table string) (*rql.RunStats, error)
	AggregateDataInVariable(qs, qq, table, aggFunc string) (*rql.RunStats, error)
	AggregateDataInTable(qs, qq, table, pairs string) (*rql.RunStats, error)
	CollateDataIntoIntervals(qs, qq, table string) (*rql.RunStats, error)
	Query(sqlText string, params ...rql.Value) (*rql.Rows, error)
	Exec(sqlText string, cb rql.RowCallback, params ...rql.Value) error
}

// retroReq is one retrospective request and its shadow answer.
type retroReq struct {
	kind  string
	mech  string
	qs    string
	qq    string
	extra string
	win   []uint64
	want  func() []string
}

func (q retroReq) run(c mechRunner, table string) (*rql.RunStats, error) {
	switch q.mech {
	case "CollateData":
		return c.CollateData(q.qs, q.qq, table)
	case "AggregateDataInVariable":
		return c.AggregateDataInVariable(q.qs, q.qq, table, q.extra)
	case "AggregateDataInTable":
		return c.AggregateDataInTable(q.qs, q.qq, table, q.extra)
	default:
		return c.CollateDataIntoIntervals(q.qs, q.qq, table)
	}
}

// phase is one measured phase: the traffic, its samples and the
// layers' counters around it.
type phase struct {
	e       *env
	sys     *retro.System
	rec     *recorder
	rng     *rand.Rand // the reader's stream; the writer has its own
	seconds float64
	setups  []float64 // setup_s samples, seconds

	mu     sync.Mutex
	counts map[string]*opCounts
	errs   []string

	// reader samples (reader goroutine only)
	retroMS, asofMS, asofExecMS []float64
	kindMS                      map[string][]float64
	split                       map[bool]map[string][]float64 // traced run: latency by traced, kind
	wireOverheadMS, openSnapMS  []float64
	iters                       int
	cost                        rql.IterationCost
	run                         rql.RunStats // run-level sums
	rounds                      []mixRound
	retroCPU                    time.Duration // process CPU during retro requests
	tables                      int

	// writer and view samples (guarded by mu)
	commitMS, lateMS []float64
	acks, arrivals   map[uint64]time.Time
	batches          []rql.ViewBatch
	newest           atomic.Uint64 // newest snapshot recorded in SnapIds
}

func newPhase(e *env, seed int64, seconds float64, rec *recorder) *phase {
	ph := &phase{
		e: e, sys: e.db.Engine().Retro(), rec: rec, seconds: seconds,
		rng:    rand.New(rand.NewSource(seed)),
		counts: map[string]*opCounts{}, kindMS: map[string][]float64{},
		split: map[bool]map[string][]float64{false: {}, true: {}},
		acks:  map[uint64]time.Time{}, arrivals: map[uint64]time.Time{},
	}
	ph.newest.Store(e.baseSnap)
	return ph
}

// outcome counts one operation; a non-nil err is a failure.
func (ph *phase) outcome(kind string, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	c := ph.counts[kind]
	if c == nil {
		c = &opCounts{}
		ph.counts[kind] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
		if len(ph.errs) < 20 {
			ph.errs = append(ph.errs, fmt.Sprintf("%s: %v", kind, err))
		}
	}
}

// window picks the members of a request's snapshot set.
func (ph *phase) window() []uint64 {
	p := ph.e.p
	newest := ph.newest.Load()
	span := uint64((p.Window-1)*max(p.Stride, 1)) + 1
	var first uint64
	switch {
	case p.WriterRate > 0: // windows end at the newest snapshot
		first = newest - span + 1
	default:
		first = 1 + uint64(ph.rng.Int63n(int64(newest-span+1)))
	}
	win := make([]uint64, p.Window)
	for i := range win {
		win[i] = first + uint64(i*max(p.Stride, 1))
	}
	return win
}

func qsFor(win []uint64) string {
	a, b := win[0], win[len(win)-1]
	if len(win) > 1 && win[1]-win[0] > 1 {
		step := win[1] - win[0]
		return fmt.Sprintf(`SELECT snap_id FROM SnapIds WHERE snap_id >= %d AND snap_id <= %d AND (snap_id - %d) %% %d = 0 ORDER BY snap_id`, a, b, a, step)
	}
	return fmt.Sprintf(`SELECT snap_id FROM SnapIds WHERE snap_id >= %d AND snap_id <= %d ORDER BY snap_id`, a, b)
}

// nextRetro builds request i of the reader's round-robin mix.
func (ph *phase) nextRetro(i int) retroReq {
	p, sh := ph.e.p, ph.e.h.sh
	win := ph.window()
	q := retroReq{kind: p.Kinds[i%len(p.Kinds)], win: win, qs: qsFor(win)}
	lo, _ := sh.live(win[0])
	_, hi := sh.live(win[len(win)-1])
	keyRange := func() (int64, int64) {
		a := lo + ph.rng.Int63n(max(hi-lo-p.RangeKeys, 1))
		return a, a + p.RangeKeys
	}
	switch q.kind {
	case "io":
		q.mech, q.qq, q.extra = "AggregateDataInVariable", qqIO, "sum"
		q.want = func() []string {
			var n int64
			for _, s := range win {
				n += sh.openCount(s)
			}
			return []string{rowKey(rql.Int(n))}
		}
	case "range":
		a, b := keyRange()
		q.mech, q.qq, q.extra = "AggregateDataInVariable", fmt.Sprintf(qqRange, a, b), "sum"
		q.want = func() []string {
			var n int64
			for _, s := range win {
				n += sh.rangeCount(s, a, b)
			}
			return []string{rowKey(rql.Int(n))}
		}
	case "collate":
		q.mech, q.qq = "CollateData", fmt.Sprintf(qqCollate, ph.e.dateCut)
		q.want = func() []string { return sh.expectCollate(win, ph.e.dateCut) }
	case "agg":
		q.mech, q.qq, q.extra = "AggregateDataInTable", qqAggCn, "(cn,MAX)"
		q.want = func() []string { return sh.expectAggCn(win) }
	case "int":
		a, b := keyRange()
		q.mech, q.qq = "CollateDataIntoIntervals", fmt.Sprintf(qqIntRange, a, b)
		q.want = func() []string { return sh.expectIntervals(win, a, b) }
	}
	return q
}

// readBack fetches and drops a result table.
func readBack(c mechRunner, table string) ([]string, error) {
	rows, err := c.Query(`SELECT * FROM ` + table)
	if err != nil {
		return nil, err
	}
	if err := c.Exec(`DROP TABLE `+table, nil); err != nil {
		return nil, err
	}
	return rowKeys(rows.Rows), nil
}

// reader is the closed-loop connection: one retrospective request, then
// AsofPerRetro point reads, until the deadline. rc is the in-process
// connection traced requests are replayed on.
func (ph *phase) reader(c *client.Conn, rc *rql.Conn, deadline time.Time) {
	for i := 0; time.Now().Before(deadline); i++ {
		ph.retroOnce(c, rc, i)
		for j := 0; j < ph.e.p.AsofPerRetro; j++ {
			ph.asofOnce(c, rc)
		}
	}
}

func (ph *phase) retroOnce(c *client.Conn, rc *rql.Conn, i int) {
	q := ph.nextRetro(i)
	traced := ph.rec.on && ph.rng.Intn(2) == 0
	verify := traced || ph.rng.Float64() < ph.e.p.VerifyShare

	table := ph.table("")
	cpu0 := procCPU()
	start := time.Now()
	rs, err := q.run(c, table)
	d := time.Since(start)
	ph.retroCPU += procCPU() - cpu0
	if err == nil && rs == nil {
		err = errors.New("no run statistics")
	}
	if err != nil {
		ph.outcome("retro."+q.kind, err)
		_ = c.Exec(`DROP TABLE IF EXISTS `+table, nil) // best effort; the failure is counted
		return
	}
	ph.retroMS = append(ph.retroMS, ms(d))
	ph.kindMS[q.kind] = append(ph.kindMS[q.kind], ms(d))
	ph.addToRound(i, len(rs.Iterations), d)
	ph.addRun(rs)
	if ph.rec.on {
		ph.split[traced][q.kind] = append(ph.split[traced][q.kind], ms(d))
	}

	var got []string
	if verify {
		got, err = readBack(c, table)
		if err == nil {
			err = sameRows(got, q.want())
		}
	} else {
		err = c.Exec(`DROP TABLE `+table, nil)
	}
	if err == nil && traced {
		err = ph.traceRetro(c, rc, q, got)
	}
	ph.outcome("retro."+q.kind, err)
}

// addToRound counts request i's snapshot iterations and time in its
// round of the mix.
func (ph *phase) addToRound(i, iters int, d time.Duration) {
	k := i / len(ph.e.p.Kinds)
	for len(ph.rounds) <= k {
		ph.rounds = append(ph.rounds, mixRound{})
	}
	r := &ph.rounds[k]
	r.requests++
	r.iters += iters
	r.d += d
}

// table names a fresh result table.
func (ph *phase) table(tag string) string {
	ph.tables++
	return fmt.Sprintf("%s%s%d", resultPrefix, tag, ph.tables)
}

// traceRetro repeats a checked request with spans: over the wire again
// (so it meets the cache the first run left, as the replays below do),
// then one layer down through rql.Conn in process, then the snapshot
// set open and the per-member AS OF evaluation of the same Qq. Each
// repetition must return the first run's rows.
func (ph *phase) traceRetro(c *client.Conn, rc *rql.Conn, q retroReq, want []string) error {
	trace := ph.rec.newTrace()
	root, err := ph.spanRetro(c, q, trace, 0, "client.request", want)
	if err != nil {
		return err
	}
	replay, err := ph.spanRetro(rc, q, trace, root, "rql.Conn.replay", want)
	if err != nil {
		return err
	}

	ids := make([]retro.SnapshotID, len(q.win))
	for i, s := range q.win {
		ids[i] = retro.SnapshotID(s)
	}
	_, end := ph.rec.span(trace, replay, "retro.OpenSnapshotSet")
	set, err := ph.sys.OpenSnapshotSet(ids)
	end()
	if err != nil {
		return err
	}
	set.Close()
	for _, s := range q.win {
		aid, endAsof := ph.rec.span(trace, replay, "sql.Conn.ExecAsOf")
		_, endOpen := ph.rec.span(trace, aid, "retro.OpenSnapshot")
		r, err := ph.sys.OpenSnapshot(retro.SnapshotID(s))
		endOpen()
		if err != nil {
			return err
		}
		r.Close()
		err = rc.Conn.ExecAsOf(q.qq, s, func([]string, []rql.Value) error { return nil })
		endAsof()
		if err != nil {
			return err
		}
	}
	return nil
}

// spanRetro runs q on one path inside a span and checks its rows.
func (ph *phase) spanRetro(c mechRunner, q retroReq, trace, parent uint64, name string, want []string) (uint64, error) {
	table := ph.table("t")
	id, end := ph.rec.span(trace, parent, name)
	_, err := q.run(c, table)
	end()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	got, err := readBack(c, table)
	if err == nil {
		err = sameRows(got, want)
	}
	if err != nil {
		return 0, fmt.Errorf("%s differs from the checked run: %w", name, err)
	}
	return id, nil
}

// asofOnce is one indexed point read; every one is checked.
func (ph *phase) asofOnce(c *client.Conn, rc *rql.Conn) {
	p, sh := ph.e.p, ph.e.h.sh
	newest := ph.newest.Load()
	var s uint64
	switch {
	case p.WriterRate > 0:
		s = newest
	case p.Stride > 0: // the archive's old snapshots
		s = 1 + uint64(ph.rng.Int63n(int64(newest/2)))
	default:
		s = 1 + uint64(ph.rng.Int63n(int64(newest)))
	}
	lo, hi := sh.live(s)
	k := lo - int64(p.Ops) + ph.rng.Int63n(hi-lo+1+int64(p.Ops))
	traced := ph.rec.on && ph.rng.Intn(2) == 0

	got, d, err := pointRead(c, s, k)
	if err == nil {
		ph.asofMS = append(ph.asofMS, ms(d))
		ph.asofExecMS = append(ph.asofExecMS, ms(c.LastStats().Duration))
		err = sameRows(got, sh.expectPoint(s, k))
	}
	if err == nil && traced {
		err = ph.traceAsof(c, rc, s, k, got)
	}
	ph.outcome("asof", err)
}

// pointRead reads key k as of snapshot s and times the read alone.
func pointRead(c mechRunner, s uint64, k int64) ([]string, time.Duration, error) {
	var rows [][]rql.Value
	start := time.Now()
	err := c.ExecAsOf(asofPoint, s, func(_ []string, row []rql.Value) error {
		rows = append(rows, append([]rql.Value(nil), row...))
		return nil
	}, rql.Int(k))
	d := time.Since(start)
	return rowKeys(rows), d, err
}

// traceAsof repeats a checked point read with spans, over the wire and
// then in process; the difference is the wire's overhead.
func (ph *phase) traceAsof(c *client.Conn, rc *rql.Conn, s uint64, k int64, want []string) error {
	trace := ph.rec.newTrace()
	root, end := ph.rec.span(trace, 0, "client.asof")
	got, wire, err := pointRead(c, s, k)
	end()
	if err == nil {
		err = sameRows(got, want)
	}
	if err != nil {
		return fmt.Errorf("repeated wire AS OF: %w", err)
	}
	id, end := ph.rec.span(trace, root, "rql.Conn.ExecAsOf")
	got, inproc, err := pointRead(rc, s, k)
	end()
	if err == nil {
		err = sameRows(got, want)
	}
	if err != nil {
		return fmt.Errorf("in-process AS OF differs from wire: %w", err)
	}
	ph.wireOverheadMS = append(ph.wireOverheadMS, ms(wire-inproc))
	_, end = ph.rec.span(trace, id, "retro.OpenSnapshot.asof")
	r, err := ph.sys.OpenSnapshot(retro.SnapshotID(s))
	ph.openSnapMS = append(ph.openSnapMS, ms(end()))
	if err != nil {
		return err
	}
	r.Close()
	return nil
}

// addRun folds one mechanism run's statistics into the phase totals.
func (ph *phase) addRun(rs *rql.RunStats) {
	t := rs.Total()
	ph.iters += len(rs.Iterations)
	c := &ph.cost
	c.SPTBuild += t.SPTBuild
	c.IndexCreation += t.IndexCreation
	c.QueryEval += t.QueryEval
	c.UDF += t.UDF
	c.IOTime += t.IOTime
	c.OverlapTime += t.OverlapTime
	c.QueueWait += t.QueueWait
	c.PagelogReads += t.PagelogReads
	c.MapScanned += t.MapScanned
	c.QqRows += t.QqRows
	c.ResultUpdates += t.ResultUpdates
	c.ResultSearch += t.ResultSearch
	r := &ph.run
	r.PrunedIterations += rs.PrunedIterations
	r.PipelinedPrefetches += rs.PipelinedPrefetches
	r.PrefetchHits += rs.PrefetchHits
	r.PrefetchWasted += rs.PrefetchWasted
}

// writerGrace bounds how long after the phase the writer may keep
// draining refreshes that fell due during it.
const writerGrace = 10 * time.Second

// writer is the open-loop connection: refresh transactions due at a
// fixed rate, each timed from its due time so schedule slip counts.
func (ph *phase) writer(c *client.Conn, deadline time.Time) {
	p, h, sh := ph.e.p, ph.e.h, ph.e.h.sh
	sched := newSchedule(time.Now(), p.WriterRate)
	clock := h.clock
	for i := 0; ; i++ {
		due := sched.due(i)
		if !due.Before(deadline) {
			return
		}
		if time.Now().After(deadline.Add(writerGrace)) {
			// The backlog was not drained in time: every refresh still
			// due is a request the system failed to serve.
			for ; due.Before(deadline); due = sched.due(i) {
				ph.outcome("commit", errors.New("refresh not sent: writer backlog"))
				i++
			}
			return
		}
		time.Sleep(time.Until(due))
		late := sched.late(i, time.Now())
		batch := h.gen.NextOrders(p.WriterOps)
		if err := sh.addOrders(batch); err != nil {
			ph.outcome("commit", err)
			return
		}
		cut := sh.minKey + int64(p.WriterOps)
		id, err := refresh(c, refreshSQL(cut, batch))
		ack := time.Now()
		if err == nil {
			sh.retire(cut)
			err = sh.declare(id)
		}
		if err == nil {
			ph.mu.Lock()
			ph.commitMS = append(ph.commitMS, ms(ack.Sub(due)))
			ph.lateMS = append(ph.lateMS, ms(late))
			ph.acks[id] = ack
			ph.mu.Unlock()
			clock = clock.Add(time.Hour)
			err = c.RecordSnapshot(id, clock, fmt.Sprintf("snap-%d", id))
		}
		ph.outcome("commit", err)
		if err != nil {
			return // the shadow no longer matches the database
		}
		ph.newest.Store(id)
	}
}

// refresh sends one refresh transaction and returns its snapshot id.
func refresh(c *client.Conn, stmts []string) (uint64, error) {
	if err := c.Begin(); err != nil {
		return 0, err
	}
	for _, s := range stmts {
		if err := c.Exec(s, nil); err != nil {
			return 0, errors.Join(err, c.Rollback())
		}
	}
	return c.CommitWithSnapshot()
}

// viewWatcher records when each of the view's batches arrives. A batch
// can arrive before the writer has seen its commit acknowledged, so
// the rows are checked once the phase is over (checkView).
func (ph *phase) viewWatcher(sub *rql.ViewSub, done chan<- struct{}) {
	defer close(done)
	for b := range sub.C {
		now := time.Now()
		ph.mu.Lock()
		ph.arrivals[b.Snap] = now
		ph.batches = append(ph.batches, b)
		ph.mu.Unlock()
	}
}

// checkView verifies every delivered batch against the shadow: the
// view materializes the keys of [viewLo, viewLo+viewKeys) live at each
// snapshot, tagged with it.
func (ph *phase) checkView() {
	sh := ph.e.h.sh
	ph.mu.Lock()
	batches := ph.batches
	ph.mu.Unlock()
	for _, b := range batches {
		var want []string
		for k := ph.e.viewLo; k < ph.e.viewLo+viewKeys; k++ {
			if lo, hi := sh.live(b.Snap); k >= lo && k <= hi {
				want = append(want, rowKey(rql.Int(k), rql.Int(int64(b.Snap))))
			}
		}
		ph.outcome("view", sameRows(rowKeys(b.Rows), want))
	}
}

// viewLags pairs each acknowledged commit with its batch's delivery.
// A batch delivered before the client saw the ack has zero lag.
func (ph *phase) viewLags() (lags []float64, missing int) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.viewLagsLocked()
}

func (ph *phase) viewLagsLocked() (lags []float64, missing int) {
	for id, ack := range ph.acks {
		at, ok := ph.arrivals[id]
		if !ok {
			missing++
			continue
		}
		lags = append(lags, max(0, ms(at.Sub(ack))))
	}
	return lags, missing
}

// awaitView waits until the view delivered every acknowledged snapshot.
func (ph *phase) awaitView(limit time.Duration) {
	for end := time.Now().Add(limit); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if _, missing := ph.viewLags(); missing == 0 {
			return
		}
	}
}

// procSampler tracks the heap's peak while the phase runs.
type procSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startProcSampler() *procSampler {
	s := &procSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(sample)
			s.peak = max(s.peak, sample[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *procSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// procCPU is the CPU time the whole process has used, user and system:
// server, client and runtime together.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the host's cumulative steal and total CPU time from
// /proc/stat, in clock ticks (zeros where it cannot be read).
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}
