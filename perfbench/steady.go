package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// steadySets is how many sets of runs the steadiness check makes: the
// second set's medians must agree with the first's.
const steadySets = 2

// runSteady is the steadiness check. For each workload it makes two
// sets of `runs` runs, every run with a fresh seed, and reports for each
// end-to-end metric the spread of each set (interquartile range over
// median) and the change of the median from the first set to the
// second, both against the bound BENCHMARK.json declares. It fails when
// a spread exceeds its bound or the medians differ by more than it.
func runSteady(decl *declared, workload string, seed int64, seconds, runs int) error {
	ws := []string{workload}
	if workload == "" || workload == "all" {
		ws = decl.workloads
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var bad []string
	for _, w := range ws {
		if workloadFns[w] == nil {
			return fmt.Errorf("unknown workload %q", w)
		}
		vals := make([]map[string][]float64, steadySets)
		for s := range vals {
			vals[s] = make(map[string][]float64)
			for r := 0; r < runs; r++ {
				sd := seed + int64(s*runs+r)
				t0 := time.Now()
				res, err := runChild(exe, w, sd, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, sd, err)
				}
				for name, mv := range res.Metrics {
					vals[s][name] = append(vals[s][name], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "steady: %s set %d run %d (seed %d) took %.1f s\n", w, s+1, r+1, sd, time.Since(t0).Seconds())
			}
		}
		bad = append(bad, reportSteady(w, decl.endToEnd, vals)...)
	}
	if len(bad) > 0 {
		return fmt.Errorf("not steady: %s", strings.Join(bad, "; "))
	}
	return nil
}

// runChild runs one untraced run of this binary and parses its result.
func runChild(exe, workload string, seed int64, seconds int) (*jsonResult, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("run not correct: %d of %d ops failed", res.Failed, res.Attempted)
	}
	return &res, nil
}

// reportSteady prints one workload's table and returns its failures.
func reportSteady(w string, decls []metricDecl, vals []map[string][]float64) []string {
	var bad []string
	var b bytes.Buffer
	fmt.Fprintf(&b, "steadiness of %s (2 sets of %d runs): spread = (Q3-Q1)/median, change = set 2 median vs set 1, positive when worse\n",
		w, len(vals[0][decls[0].Name]))
	fmt.Fprintf(&b, "  %-18s %6s %14s %8s %14s %8s %8s  %s\n",
		"metric", "bound", "median1", "spread1", "median2", "spread2", "change", "verdict")
	for _, d := range decls {
		fmt.Fprintf(&b, "  %-18s %6.3f", d.Name, d.Bound)
		verdict := "steady"
		var med [steadySets]float64
		for s := range vals {
			xs := vals[s][d.Name]
			med[s] = median(xs)
			q := pyQuartiles(xs)
			spread := 0.0
			if med[s] != 0 {
				spread = (q[2] - q[0]) / math.Abs(med[s])
			}
			fmt.Fprintf(&b, " %14.6g %8.4f", med[s], spread)
			switch {
			case spread > d.Bound:
				verdict = "NOISY"
				bad = append(bad, fmt.Sprintf("%s/%s set %d spread %.3f > bound %.3f", w, d.Name, s+1, spread, d.Bound))
			case spread > d.Bound/3 && verdict == "steady":
				verdict = "within bound"
			}
		}
		change := ratio(med[1]-med[0], math.Abs(med[0]))
		if d.Better == "higher" {
			change = -change
		}
		if math.Abs(change) > d.Bound {
			verdict = "DRIFT"
			bad = append(bad, fmt.Sprintf("%s/%s medians differ by %+.3f, bound %.3f", w, d.Name, change, d.Bound))
		}
		fmt.Fprintf(&b, " %+8.4f  %s\n", change, verdict)
	}
	os.Stdout.Write(b.Bytes())
	return bad
}

// pyQuartiles returns the three quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method).
func pyQuartiles(xs []float64) [3]float64 {
	var q [3]float64
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{d[0], d[0], d[0]}
		}
		return q
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q
}
