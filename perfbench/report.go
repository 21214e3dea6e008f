package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rql"
	"rql/client"
)

// counters is every layer's public counters at one instant.
type counters struct {
	srv     client.ServerStats
	ret     rql.RetroStats
	sto     rql.StorageStats
	mallocs uint64
	cpuGC   float64
	cpuAll  float64
	views   uint64 // view refreshes
}

func readCounters(c *client.Conn, db *rql.DB) (counters, error) {
	srv, err := c.ServerStats()
	if err != nil {
		return counters{}, err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	return counters{
		srv: srv, ret: db.RetroStats(), sto: db.StorageStats(), mallocs: m.Mallocs,
		cpuGC: cpu[0].Value.Float64(), cpuAll: cpu[1].Value.Float64(),
		views: db.ViewStats().Refreshes,
	}, nil
}

// measure runs the phase's traffic for its length, then checks that
// the run left nothing behind.
func (ph *phase) measure() (*report, error) {
	e := ph.e
	c, err := client.Dial(e.addr)
	if err != nil {
		return nil, err
	}
	conns := []*client.Conn{c}
	defer func() {
		for _, c := range conns {
			_ = c.Close() // already closed on the success path
		}
	}()
	var (
		w        *client.Conn
		sub      *rql.ViewSub
		viewDone chan struct{}
	)
	if e.p.WriterRate > 0 {
		if w, err = client.Dial(e.addr); err != nil {
			return nil, err
		}
		conns = append(conns, w)
	}
	if e.p.View != "" {
		// Deliveries for every snapshot of the phase must fit: a
		// subscriber that falls this far behind is disconnected.
		if sub, err = e.db.SubscribeView(viewName, 4096); err != nil {
			return nil, err
		}
		viewDone = make(chan struct{})
		go ph.viewWatcher(sub, viewDone)
	}
	before, err := readCounters(c, e.db)
	if err != nil {
		return nil, err
	}
	sampler := startProcSampler()
	steal0, total0 := hostCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(ph.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	if w != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.writer(w, deadline)
		}()
	}
	ph.reader(c, e.db.Conn(), deadline)
	wg.Wait()
	if sub != nil {
		ph.awaitView(5 * time.Second)
	}
	wall := time.Since(start)
	steal1, total1 := hostCPU()
	heapPeak := sampler.finish()
	after, err := readCounters(c, e.db)
	if err != nil {
		return nil, err
	}

	r := &report{p: e.p, setups: ph.setups}
	if sub != nil {
		sub.Cancel()
		<-viewDone
		ph.checkView()
		if n := e.db.ViewStats().Subscribers; n != 0 {
			r.problem("view %s still has %d subscribers", viewName, n)
		}
		if err := c.Exec(`DROP RETRO VIEW `+viewName, nil); err != nil {
			return nil, err
		}
	}
	objs, err := c.Objects()
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		if strings.HasPrefix(o.Name, resultPrefix) || strings.HasPrefix(o.Name, viewName) {
			r.problem("leaked %s %s", o.Kind, o.Name)
		}
	}
	for _, c := range conns {
		if err := c.Close(); err != nil {
			return nil, err
		}
	}
	conns = nil
	active := e.srv.Stats().ConnsActive
	for end := time.Now().Add(5 * time.Second); active != 0 && time.Now().Before(end); active = e.srv.Stats().ConnsActive {
		time.Sleep(5 * time.Millisecond)
	}
	if active != 0 {
		r.problem("%d connections still active after the clients closed", active)
	}

	ph.fill(r, before, after, wall, heapPeak, e.db)
	// Time the hypervisor gave to other guests: when it is high, every
	// wall-clock figure of the run is slow for reasons outside rqld.
	r.extra = append(r.extra, named{"host_steal_share", "share", ratio(steal1-steal0, total1-total0), 1})
	return r, nil
}

// named is one reported metric with its sample count.
type named struct {
	name  string
	unit  string
	value float64
	n     int
}

// report is what one run measured.
type report struct {
	p         params
	setups    []float64
	e2e       []named
	layer     []named
	extra     []named // printed, not in the result line: too noisy to gate, or not every workload has them
	attempted int
	failed    int
	problems  []string
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ratio divides, reading 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fill derives every metric from the phase's samples and the counter
// deltas.
func (ph *phase) fill(r *report, b, a counters, wall time.Duration, heapPeak uint64, db *rql.DB) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	r.attempted, r.failed = tally(ph.counts)
	if r.failed > 0 {
		r.problem("%d of %d operations failed: %s", r.failed, r.attempted, strings.Join(ph.errs, "; "))
	}
	iters := float64(ph.iters)
	nRetro, nAsof := len(ph.retroMS), len(ph.asofMS)
	snaps := ph.newest.Load()
	rates := roundRates(ph.rounds, len(ph.e.p.Kinds))
	_, disk := db.PagelogFootprint()

	r.e2e = []named{
		{"setup_s", "s", median(r.setups), len(r.setups)},
		{"retro_snapshots_per_s", "1/s", median(rates), len(rates)},
		{"retro_p50_ms", "ms", percentile(ph.retroMS, 0.5), nRetro},
		{"retro_p90_ms", "ms", percentile(ph.retroMS, 0.9), nRetro},
		{"asof_p50_ms", "ms", percentile(ph.asofMS, 0.5), nAsof},
		{"archive_bytes_per_snapshot", "bytes", ratio(float64(disk), float64(snaps)), int(snaps)},
		{"peak_rss_mb", "MB", peakRSSMB(), 1},
	}
	r.extra = append(r.extra,
		named{"retro_cpu_ms_per_snapshot", "ms", ratio(ms(ph.retroCPU), iters), ph.iters},
		named{"asof_p90_ms", "ms", percentile(ph.asofMS, 0.9), nAsof},
		named{"asof_p99_ms", "ms", percentile(ph.asofMS, 0.99), nAsof},
		named{"ops_failed_share", "share", failedShare(ph.counts), r.attempted},
	)
	kinds := make([]string, 0, len(ph.kindMS))
	for k := range ph.kindMS {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		r.extra = append(r.extra, named{"retro_p50_ms." + k, "ms", median(ph.kindMS[k]), len(ph.kindMS[k])})
	}

	dRet := func(f func(rql.RetroStats) uint64) float64 { return float64(f(a.ret) - f(b.ret)) }
	c := ph.cost
	hits := dRet(func(s rql.RetroStats) uint64 { return s.CacheHits })
	misses := dRet(func(s rql.RetroStats) uint64 { return s.PagelogReads })
	devReads := dRet(func(s rql.RetroStats) uint64 { return s.DeviceReads })
	depth := float64(max(a.ret.DeviceQueueDepth, 1))
	var retroBusy float64
	for _, x := range ph.retroMS {
		retroBusy += x
	}
	selfs := ph.rec.selfTimes()
	var selfTotal time.Duration
	for _, d := range selfs {
		selfTotal += d
	}
	share := func(layer string) float64 { return ratio(float64(selfs[layer]), float64(selfTotal)) }

	r.layer = []named{
		{"server.wire_overhead_ms_p50", "ms", percentile(ph.wireOverheadMS, 0.5), len(ph.wireOverheadMS)},
		{"server.requests", "count", float64(a.srv.QueriesServed - b.srv.QueriesServed), 1},
		{"server.errors", "count", float64(a.srv.Errors - b.srv.Errors), 1},
		{"sql.eval_ms_per_iter", "ms", ratio(ms(c.QueryEval), iters), ph.iters},
		{"sql.qq_rows_per_iter", "count", ratio(float64(c.QqRows), iters), ph.iters},
		{"sql.asof_exec_ms_p50", "ms", percentile(ph.asofExecMS, 0.5), len(ph.asofExecMS)},
		{"proc.allocs_per_qq_row", "count", ratio(float64(a.mallocs-b.mallocs), float64(c.QqRows)), c.QqRows},
		{"core.udf_ms_per_iter", "ms", ratio(ms(c.UDF), iters), ph.iters},
		{"core.result_updates_per_iter", "count", ratio(float64(c.ResultUpdates), iters), ph.iters},
		{"core.result_search_per_iter", "count", ratio(float64(c.ResultSearch), iters), ph.iters},
		{"core.pruned_share", "share", ratio(float64(ph.run.PrunedIterations), iters), ph.iters},
		{"core.prefetch_hit_ratio", "share", ratio(float64(ph.run.PrefetchHits), float64(ph.run.PrefetchHits+ph.run.PrefetchWasted)), ph.run.PipelinedPrefetches},
		{"core.prefetch_wasted_share", "share", ratio(float64(ph.run.PrefetchWasted), float64(ph.run.PipelinedPrefetches)), ph.run.PipelinedPrefetches},
		{"core.io_overlap_share", "share", ratio(float64(c.OverlapTime), float64(c.IOTime)), ph.iters},
		{"retro.spt_build_ms_per_snapshot", "ms", ratio(ms(c.SPTBuild), iters), ph.iters},
		{"retro.map_scanned_per_snapshot", "count", ratio(float64(c.MapScanned), iters), ph.iters},
		{"retro.cache_hit_ratio", "share", ratio(hits, hits+misses), int(hits + misses)},
		{"retro.pagelog_reads_per_snapshot", "count", ratio(float64(c.PagelogReads), iters), ph.iters},
		{"retro.device_queue_wait_share", "share", ratio(ms(c.QueueWait), retroBusy), nRetro},
		{"retro.device_busy_share", "share", ratio(dRet(func(s rql.RetroStats) uint64 { return s.DeviceBusyNS }), float64(wall)*depth), 1},
		{"retro.device_bytes_per_read", "bytes", ratio(dRet(func(s rql.RetroStats) uint64 { return s.DeviceBytesRead }), devReads), int(devReads)},
		{"retro.open_snapshot_ms_p50", "ms", percentile(ph.openSnapMS, 0.5), len(ph.openSnapMS)},
		{"proc.gc_cpu_share", "share", ratio(a.cpuGC-b.cpuGC, a.cpuAll-b.cpuAll), 1},
		{"proc.heap_peak_mb", "MB", float64(heapPeak) / (1 << 20), 1},
		{"layer.server_self_share", "share", share("server"), len(ph.rec.spans)},
		{"layer.core_self_share", "share", share("core"), len(ph.rec.spans)},
		{"layer.sql_self_share", "share", share("sql"), len(ph.rec.spans)},
		{"layer.retro_self_share", "share", share("retro"), len(ph.rec.spans)},
		{"bench.trace_overhead_share", "share", traceOverhead(ph.split), len(ph.wireOverheadMS)},
	}

	// No Qq the workloads send joins, so no transient index is built.
	r.extra = append(r.extra, named{"sql.index_ms_per_iter", "ms", ratio(ms(c.IndexCreation), iters), ph.iters})

	if r.p.WriterRate > 0 {
		commits := float64(a.sto.Commits - b.sto.Commits)
		lags, missing := ph.viewLagsLocked()
		if missing > 0 {
			r.problem("view delivered no batch for %d acknowledged snapshots", missing)
		}
		written := float64(snaps - ph.e.baseSnap)
		r.extra = append(r.extra,
			named{"commit_p50_ms", "ms", percentile(ph.commitMS, 0.5), len(ph.commitMS)},
			named{"commit_p90_ms", "ms", percentile(ph.commitMS, 0.9), len(ph.commitMS)},
			named{"view_lag_p50_ms", "ms", percentile(lags, 0.5), len(lags)},
			named{"view_lag_p90_ms", "ms", percentile(lags, 0.9), len(lags)},
			named{"core.view_refreshes_per_snapshot", "count", ratio(float64(a.views-b.views), written), int(written)},
			named{"retro.pagelog_pages_per_commit", "count", ratio(dRet(func(s rql.RetroStats) uint64 { return s.PagelogWrites }), commits), int(commits)},
			named{"storage.pages_written_per_commit", "count", ratio(float64(a.sto.PagesWritten-b.sto.PagesWritten), commits), int(commits)},
			named{"storage.commit_queue_wait_ms", "ms", ratio(float64(a.sto.QueueWaitNS-b.sto.QueueWaitNS)/1e6, commits), int(commits)},
			named{"storage.commits_per_group", "count", ratio(commits, float64(a.sto.Groups-b.sto.Groups)), int(commits)},
			named{"storage.device_flushes_per_commit", "count", ratio(dRet(func(s rql.RetroStats) uint64 { return s.DeviceFlushes }), commits), int(commits)},
			named{"bench.gen_late_ms_p90", "ms", percentile(ph.lateMS, 0.9), len(ph.lateMS)},
		)
	}
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// traceOverhead compares, kind by kind, the median latency of requests
// followed by tracing work with that of the untraced ones interleaved
// with them, and weights each kind's ratio by its traced count.
func traceOverhead(split map[bool]map[string][]float64) float64 {
	var sum, n float64
	for kind, tr := range split[true] {
		un := split[false][kind]
		if len(un) == 0 {
			continue
		}
		sum += float64(len(tr)) * median(tr) / median(un)
		n += float64(len(tr))
	}
	return ratio(sum, n) - 1
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// tails are the percentiles whose metrics must have minTail samples
// beyond them.
var tails = map[string]float64{
	"retro_p90_ms": 0.9, "asof_p90_ms": 0.9, "asof_p99_ms": 0.99, "commit_p90_ms": 0.9, "view_lag_p90_ms": 0.9,
}

// result prints the human-readable report and returns the result line.
func (r *report) result(traced bool) *result {
	fmt.Printf("\nworkload %s (%s)\n", r.p.Name, map[bool]string{false: "end-to-end", true: "traced: per-layer"}[traced])
	print := func(title string, ms []named) {
		fmt.Println(title)
		for _, m := range ms {
			fmt.Printf("  %-36s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
			if p, ok := tails[m.name]; ok && !tailSupported(m.n, p) {
				fmt.Printf("  WARNING: %s has %d samples, fewer than %d beyond its percentile\n", m.name, m.n, minTail)
			}
		}
	}
	out := r.e2e
	if traced {
		out = r.layer
		print("end-to-end (traced run; untraced runs give the real figures):", r.e2e)
		print("per-layer:", r.layer)
	} else {
		print("end-to-end:", r.e2e)
	}
	print("printed only:", r.extra)
	res := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range out {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.problem("metric %s has no value", m.name)
			continue
		}
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	if len(r.problems) > 0 || r.attempted == 0 {
		res.Correct = false
	}
	return res
}
