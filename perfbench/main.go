// Command perfbench is rqld's end-to-end and per-layer benchmark. It
// builds a TPC-H snapshot history from a seed, serves it with an
// in-process rqld on a loopback listener, drives one workload through
// the wire client for a fixed time, checks every sampled result
// against an analytic shadow model, and prints its metrics.
//
//	perfbench --workload retro_dense --seed 1 --seconds 25 --trace 0
//	perfbench spread results.jsonl   # quartile spread of repeated runs
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around each call into a layer, replays a sample of the
// requests one layer down, and reports the per-layer metrics. The last
// line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// workDir holds everything a run writes: Pagelog files and traces.
const workDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload name (retro_dense, retro_archive, mixed_ingest)")
		seed     = flag.Int64("seed", 1, "seed for the generated data and request stream")
		seconds  = flag.Float64("seconds", 25, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	p, err := lookupWorkload(*workload)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runWorkload(p, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up, measures it and tears it down.
func runWorkload(p params, seed int64, seconds float64, traced bool) (*result, error) {
	tmp := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	st := newStamp(p, seed, seconds, traced)
	if err := st.print(); err != nil {
		return nil, err
	}

	// Set up several times and keep the last: setup_s is their median.
	reps := 3
	if traced {
		reps = 1
	}
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			// Return the closed database's memory so the RSS peak
			// reflects one database, not how the collector timed the
			// earlier set-ups.
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if e, err = setup(p, seed, tmp); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Printf("setup: %.3v s, %d snapshots, %d Pagelog pages, cache %d pages\n",
		setups, e.baseSnap, e.db.PagelogPages(), cacheCap(p))

	rec := &recorder{on: traced}
	ph := newPhase(e, seed, seconds, rec)
	ph.setups = setups
	rep, err := ph.measure()
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if traced {
		path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", p.Name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := rec.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(rec.spans), path)
	}
	return rep.result(traced), nil
}

func cacheCap(p params) int {
	if p.CachePages == 0 {
		return 16384
	}
	return p.CachePages
}
