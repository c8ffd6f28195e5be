package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"green/internal/stats"
)

// Compare mode: given two result sets (directories or files holding the
// benchmark's standard output, one run per file), print for each
// workload and metric the median and quartiles of each set and a
// verdict under BENCHMARK.json's bounds.

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// metricRule is how a metric is judged: its direction and, for an
// end-to-end metric, its bound (0 means none).
type metricRule struct {
	lowerBetter bool
	bound       float64
}

func loadRules(root string) (map[string]metricRule, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	rules := map[string]metricRule{}
	for _, m := range spec.EndToEnd {
		rules[m.Name] = metricRule{lowerBetter: m.Better == "lower", bound: m.Bound}
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = metricRule{lowerBetter: m.Better == "lower"}
	}
	return rules, nil
}

// run is one parsed benchmark output.
type run struct {
	workload string
	seed     int64
	metrics  map[string]float64
}

func parseRun(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, err
	}
	defer f.Close()
	var r run
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "record "); ok {
			var env envRecord
			if err := json.Unmarshal([]byte(rest), &env); err != nil {
				return r, fmt.Errorf("%s: record: %v", path, err)
			}
			r.workload, r.seed = env.Workload, env.Seed
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return r, fmt.Errorf("%s: last line is not a result: %v", path, err)
	}
	if r.workload == "" {
		return r, fmt.Errorf("%s: no record line", path)
	}
	r.metrics = map[string]float64{}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

func loadSet(path string) ([]run, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var runs []run
	for _, f := range files {
		r, err := parseRun(f)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].seed < runs[j].seed })
	return runs, nil
}

// quartiles returns the 25th, 50th and 75th percentiles of xs, as
// internal/stats computes them; empty input yields zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	q1, _ = stats.Percentile(xs, 25)
	med, _ = stats.Percentile(xs, 50)
	q3, _ = stats.Percentile(xs, 75)
	return q1, med, q3
}

// verdict judges set b against set a for one metric.
func verdict(a, b []float64, pairs [][2]float64, rule metricRule) string {
	if rule.bound == 0 {
		return "-"
	}
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worse := func(x, y float64) bool { // y is worse than x
		if rule.lowerBetter {
			return y > x
		}
		return y < x
	}
	rel := (bm - am) / math.Abs(am)
	if !rule.lowerBetter {
		rel = -rel // positive is worse
	}
	spreadA := (aq3 - aq1) / math.Abs(am)
	spreadB := (bq3 - bq1) / math.Abs(bm)
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && worse(y, x)
			allWorse = allWorse && worse(x, y)
		}
	}
	if spreadA > rule.bound || spreadB > rule.bound {
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	if rel > rule.bound {
		return "worse"
	}
	wins := 0
	for _, p := range pairs {
		if worse(p[1], p[0]) {
			wins++
		}
	}
	if -rel > spreadA && len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) {
		return "better"
	}
	return "within bound"
}

func runCompare(root string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <results-A> <results-B>")
	}
	rules, err := loadRules(root)
	if err != nil {
		return err
	}
	sets := make([][]run, 2)
	for i, p := range args {
		if sets[i], err = loadSet(p); err != nil {
			return err
		}
	}
	byWL := func(rs []run) map[string][]run {
		m := map[string][]run{}
		for _, r := range rs {
			m[r.workload] = append(m[r.workload], r)
		}
		return m
	}
	a, b := byWL(sets[0]), byWL(sets[1])
	var wls []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Printf("%-8s %-32s %9s %9s %9s | %9s %9s %9s | %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "verdict")
	for _, wl := range wls {
		names := map[string]bool{}
		for _, r := range a[wl] {
			for k := range r.metrics {
				names[k] = true
			}
		}
		var keys []string
		for k := range names {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var av, bv []float64
			for _, r := range a[wl] {
				if v, ok := r.metrics[k]; ok {
					av = append(av, v)
				}
			}
			bySeed := map[int64]float64{}
			for _, r := range b[wl] {
				if v, ok := r.metrics[k]; ok {
					bv = append(bv, v)
					bySeed[r.seed] = v
				}
			}
			if len(bv) == 0 {
				continue
			}
			var pairs [][2]float64
			for _, r := range a[wl] {
				if v, ok := bySeed[r.seed]; ok {
					pairs = append(pairs, [2]float64{r.metrics[k], v})
				}
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			fmt.Printf("%-8s %-32s %9.4g %9.4g %9.4g | %9.4g %9.4g %9.4g | %s\n",
				wl, k, aq1, am, aq3, bq1, bm, bq3, verdict(av, bv, pairs, rules[k]))
		}
	}
	return nil
}
