package main

import (
	"os"
	"time"

	"rql/internal/obs"
)

// recorder keeps the benchmark's own spans in memory: one span around
// each call into a layer's public function. Spans of one request share
// a trace id. A replay span (the same work repeated one layer down) is
// recorded as a child of the span it stands in for, which is how layer
// self times are derived: a span's duration minus its children's.
// Only the reader goroutine records, so no lock is needed.
type recorder struct {
	on    bool // a traced run
	spans []obs.Span
	seq   uint64
}

// span starts a span and returns its id, for children, and the
// function that ends it and reports its duration.
func (r *recorder) span(trace, parent uint64, name string) (id uint64, end func() time.Duration) {
	start := time.Now()
	r.seq++
	id = r.seq
	return id, func() time.Duration {
		d := time.Since(start)
		r.spans = append(r.spans, obs.Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, Duration: d})
		return d
	}
}

// newTrace mints a request id.
func (r *recorder) newTrace() uint64 {
	r.seq++
	return r.seq
}

// write exports the spans as Chrome trace-event JSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = obs.WriteTraceEvents(f, r.spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerOf maps a span name to the layer whose self time it carries.
var layerOf = map[string]string{
	"client.request":          "server",
	"rql.Conn.replay":         "core",
	"retro.OpenSnapshotSet":   "retro",
	"sql.Conn.ExecAsOf":       "sql",
	"retro.OpenSnapshot":      "retro",
	"client.asof":             "server",
	"rql.Conn.ExecAsOf":       "sql",
	"retro.OpenSnapshot.asof": "retro",
}

// selfTimes sums each layer's self time over the recorded spans: a
// span's duration minus the durations of its direct children.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := map[uint64]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Duration
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		if l, ok := layerOf[s.Name]; ok {
			out[l] += s.Duration - child[s.ID]
		}
	}
	return out
}
