package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// stamp identifies what produced a result: the code, the host and the
// workload's parameters.
type stamp struct {
	Revision     string `json:"revision"`
	Dirty        string `json:"dirty"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	// HostSleepUS is the median wall time of time.Sleep(100µs) on this
	// host: the sleeping device model cannot wait less than it.
	HostSleepUS float64 `json:"host_sleep_100us_median_us"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	Workload    params  `json:"workload"`
}

// newStamp reads the revision git embedded at build time. A checkout
// without git history has none, so the stamp also carries a digest of
// the Go sources in the working directory, which identifies the code
// either way.
func newStamp(p params, seed int64, seconds float64, traced bool) stamp {
	st := stamp{
		Revision: "unknown", Dirty: "unknown",
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Traced: traced, Workload: p,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Revision = s.Value
			case "vcs.modified":
				st.Dirty = s.Value
			}
		}
	}
	var sleeps []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		time.Sleep(100 * time.Microsecond)
		sleeps = append(sleeps, float64(time.Since(start))/float64(time.Microsecond))
	}
	st.HostSleepUS = median(sleeps)
	sum, err := sourceDigest(".")
	if err != nil {
		sum = "error: " + err.Error()
	}
	st.SourceSHA256 = sum
	return st
}

// sourceDigest hashes the path and content of every .go file and
// go.mod under root, skipping hidden directories (build output, VCS).
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (st stamp) print() error {
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", b)
	return nil
}
