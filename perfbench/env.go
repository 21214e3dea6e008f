package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"rql"
	"rql/internal/server"
	"rql/internal/tpch"
)

// params is one workload's frozen configuration. Every field is
// stamped into the result.
type params struct {
	Name string `json:"name"`

	SF           float64 `json:"sf"`
	History      int     `json:"history_snapshots"`
	RefreshEvery int     `json:"refresh_every"` // 1: every snapshot is a refresh
	QuietRatio   float64 `json:"quiet_ratio"`
	Ops          int     `json:"orders_per_refresh"`

	CachePages    int     `json:"cache_pages"` // 0: the 16384-page default
	ReadLatencyUS int     `json:"device_read_latency_us"`
	SleepOnRead   bool    `json:"device_sleeps"`
	BandwidthMBs  int64   `json:"device_bandwidth_mb_s"` // 0: infinitely fast bus
	Compaction    bool    `json:"compaction"`
	SegmentPages  int     `json:"segment_pages,omitempty"`
	FlushPolicy   string  `json:"flush_policy"`
	Pagelog       string  `json:"pagelog"`
	Reader        string  `json:"reader"`
	WriterRate    float64 `json:"writer_commits_per_s,omitempty"`
	WriterOps     int     `json:"writer_orders_per_refresh,omitempty"`
	View          string  `json:"view,omitempty"`

	// Reader mix.
	Kinds        []string `json:"retro_kinds"`
	Window       int      `json:"window_members"`
	Stride       int      `json:"window_stride"`
	AsofPerRetro int      `json:"asof_per_retro"`
	RangeKeys    int64    `json:"range_keys"`
	CollateFrac  float64  `json:"collate_fraction"`
	VerifyShare  float64  `json:"verify_share"`
}

// flushPolicy is HEAD's durability model, stamped so results taken
// under another policy are not compared with these.
const flushPolicy = "no per-commit fsync; group flush is a modeled counter; segment seal fsyncs"

// uw30 is the paper's UW30 refresh size: the database is overwritten
// every 50 snapshots.
func uw30(sf float64) int { return tpch.NewGenerator(sf, 1).Orders() / 50 }

// workloads are the benchmark's traffic mixes; BENCHMARK.json and
// METRICS.md say why each exists.
var workloads = map[string]params{
	"retro_dense": {
		SF:           0.01,
		History:      30,
		RefreshEvery: 1,
		Reader:       "1 closed-loop connection",
		Kinds:        []string{"io", "collate", "agg", "int"},
		Window:       3,
		AsofPerRetro: 24,
		RangeKeys:    400,
		CollateFrac:  0.1,
		VerifyShare:  0.25,
	},
	"retro_archive": {
		SF:            0.01,
		History:       160,
		RefreshEvery:  4,
		CachePages:    256,
		ReadLatencyUS: 100,
		SleepOnRead:   true,
		BandwidthMBs:  400,
		Compaction:    true,
		SegmentPages:  256,
		Reader:        "1 closed-loop connection",
		// Three cheap range counts per Qq_io scan: the median falls
		// inside the range counts and the p90 inside the scans, never
		// on the gap between the two, so neither jumps between runs.
		Kinds:        []string{"io", "range", "range", "range"},
		Window:       3,
		Stride:       50,
		AsofPerRetro: 10,
		RangeKeys:    400,
		VerifyShare:  0.25,
	},
	"mixed_ingest": {
		SF:           0.01,
		History:      30,
		RefreshEvery: 1,
		Reader:       "1 closed-loop connection; 1 open-loop writer connection",
		// Solo, the writer sustains ~140 refreshes/s on 2 cores; at a
		// quarter of that it fell behind beside the reader and its
		// backlog made every figure of the workload swing between runs.
		WriterRate:   15,
		WriterOps:    30,
		View:         "CollateData over an o_orderkey range at the insert front",
		Kinds:        []string{"io", "collate", "agg", "int"},
		Window:       3,
		AsofPerRetro: 24,
		RangeKeys:    400,
		CollateFrac:  0.1,
		VerifyShare:  0.25,
	},
}

func lookupWorkload(name string) (params, error) {
	p, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return params{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	p.Name = name
	p.Ops = uw30(p.SF)
	p.QuietRatio = 1 - 1/float64(p.RefreshEvery)
	p.FlushPolicy = flushPolicy
	p.Pagelog = "file in a fresh temp dir"
	return p, nil
}

// viewName is the mixed workload's retro view; result tables of the
// reader carry resultPrefix. Teardown asserts neither outlives a run.
const (
	viewName     = "pb_view"
	resultPrefix = "pb_r"
	viewKeys     = 200
)

// env is one built database served by an in-process rqld.
type env struct {
	p      params
	dir    string
	db     *rql.DB
	h      *history
	srv    *server.Server
	addr   string
	served chan error

	dateCut  string // Qq_collate's predicate
	viewLo   int64  // the view's key window [viewLo, viewLo+viewKeys)
	baseSnap uint64 // snapshots declared by setup
}

// setup builds the workload's database: load, index, history, view,
// seal and cache warm-up, then starts rqld on a loopback listener.
func setup(p params, seed int64, tmpRoot string) (*env, error) {
	dir, err := os.MkdirTemp(tmpRoot, "pb-")
	if err != nil {
		return nil, err
	}
	e := &env{p: p, dir: dir}
	if err := e.build(seed); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

func (e *env) build(seed int64) error {
	p := e.p
	opts := rql.Options{
		PagelogPath:          e.dir + "/pagelog",
		CachePages:           p.CachePages,
		SimulatedReadLatency: time.Duration(p.ReadLatencyUS) * time.Microsecond,
		SleepOnRead:          p.SleepOnRead,
		SimulatedBandwidth:   p.BandwidthMBs << 20,
	}
	if p.Compaction {
		opts.Compaction = rql.CompactionOptions{Enabled: true, SegmentPages: p.SegmentPages, MinTailPages: -1}
	}
	db, err := rql.Open(opts)
	if err != nil {
		return err
	}
	e.db = db
	conn := db.Conn()
	e.h = newHistory(conn.Conn, p.SF, seed)
	if err := e.h.load(); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	for _, ddl := range []string{
		`CREATE INDEX orders_okey ON orders (o_orderkey)`,
		`CREATE INDEX lineitem_okey ON lineitem (l_orderkey)`,
	} {
		if err := conn.Exec(ddl, nil); err != nil {
			return err
		}
	}
	for i := 0; i < p.History; i++ {
		ops := 0
		if i%p.RefreshEvery == 0 {
			ops = p.Ops
		}
		if _, err := e.h.step(ops); err != nil {
			return fmt.Errorf("history step %d: %w", i, err)
		}
	}
	e.baseSnap = e.h.sh.snapshots()
	e.dateCut = e.h.sh.dateQuantile(e.baseSnap, p.CollateFrac)
	if p.View != "" {
		_, hi := e.h.sh.live(e.baseSnap)
		e.viewLo = hi + 1
		qq := fmt.Sprintf(`SELECT o_orderkey, current_snapshot() AS sid FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d`,
			e.viewLo, e.viewLo+viewKeys)
		if err := conn.Exec(fmt.Sprintf(`CREATE RETRO VIEW %s AS CollateData('%s')`, viewName, qq), nil); err != nil {
			return err
		}
		if err := conn.Exec(`REFRESH RETRO VIEW `+viewName, nil); err != nil {
			return err
		}
	}
	if p.Compaction {
		if _, err := db.SealPagelog(); err != nil {
			return err
		}
	}
	if p.CachePages == 0 {
		// The default cache holds every window: warm it so the measured
		// phase sees the steady state, not first touches.
		qs := fmt.Sprintf(`SELECT snap_id FROM SnapIds WHERE snap_id >= 1 AND snap_id <= %d ORDER BY snap_id`, e.baseSnap)
		for _, qq := range []string{qqIO, `SELECT COUNT(*) FROM orders WHERE o_orderkey > 0`} {
			if _, err := conn.AggregateDataInVariable(qs, qq, resultPrefix+"_warm", "sum"); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if err := conn.Exec(`DROP TABLE `+resultPrefix+"_warm", nil); err != nil {
				return err
			}
		}
	}
	db.ResetStats()

	e.srv = server.New(db, server.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.addr = lis.Addr().String()
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(lis) }()
	return nil
}

// close stops rqld, closes the database and removes its files.
func (e *env) close() error {
	var errs []error
	if e.srv != nil {
		e.srv.Shutdown()
		if err := <-e.served; err != nil && !errors.Is(err, server.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if e.db != nil {
		errs = append(errs, e.db.Close())
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}
