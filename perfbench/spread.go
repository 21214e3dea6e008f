package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// spreadMain reads the outputs of repeated runs (files whose last
// non-empty line is a result), and prints per metric the median, the
// quartiles and their distance as a share of the median, against the
// bound BENCHMARK.json fixes.
func spreadMain(files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("usage: perfbench spread OUTPUT...")
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for _, f := range files {
		res, err := lastResult(f)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if !res.Correct {
			return fmt.Errorf("%s: run was not correct", f)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %4s %12s %12s %12s %8s %6s\n", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		b, ok := bounds[n]
		bound := "-"
		if ok {
			bound = fmt.Sprintf("%.3f", b)
		}
		fmt.Printf("%-36s %4d %12.4f %12.4f %12.4f %8.4f %6s\n", n, len(values[n]), q1, med, q3, spread(values[n]), bound)
	}
	return nil
}

// benchConfig is the part of BENCHMARK.json this program reads.
type benchConfig struct {
	EndToEnd []configMetric `json:"end_to_end"`
	PerLayer []configMetric `json:"per_layer"`
}

type configMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readConfig(path string) (*benchConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg benchConfig
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &cfg, nil
}

func readBounds(path string) (map[string]float64, error) {
	cfg, err := readConfig(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range cfg.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

var errNoResults = errors.New("no results")

func lastResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if last == "" {
		return nil, errNoResults
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, err
	}
	return &res, nil
}
