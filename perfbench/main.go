// Command perfbench is the repository's benchmark. It runs one named
// workload from a single process, times the calls into each layer's
// public functions from outside, checks every result against the
// internal/interp oracle, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// declares; with --trace 1 they are the per-layer ones, measured in a
// separate traced run. Run it from the repository root through
// perfbench/run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload simulate --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --steady 10 --workload all --seconds 25
//
// See perfbench/NOTES.md for why each workload exists and which layer
// metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times a run repeats its set-up before the timed
// loop, and an untraced run again after it; setup_s is the median of
// all of them.
const setupRuns = 8

// metricSet maps metric names to measured values.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// runConfig is what every workload gets from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// log receives the human-readable report; stdout's last line is
	// reserved for the JSON result.
	log io.Writer
	// outDir holds span files and run records.
	outDir string
}

// result is one run's outcome.
type result struct {
	gate    gate
	metrics metricSet
}

var workloadFns = map[string]func(runConfig) (*result, error){
	"simulate": runSimulate,
	"compile":  runCompile,
	"serve":    runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: simulate, compile or serve (all, with --steady)")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "how long one run measures, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	steady := flag.Int("steady", 0, "with N > 0, run the workload in two sets of N runs with fresh seeds and report each metric's spread and the sets' agreement against BENCHMARK.json's bounds")
	flag.Parse()

	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fail("bad --seconds %d or --trace %d", *seconds, *traceFlag)
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fail("%v", err)
	}
	if *steady > 0 {
		if err := runSteady(decl, *workload, *seed, *seconds, *steady); err != nil {
			fail("%v", err)
		}
		return
	}
	fn := workloadFns[*workload]
	if fn == nil {
		fail("unknown --workload %q", *workload)
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = ".bench_build"
	}
	outDir = filepath.Join(outDir, "perfbench-runs")

	stdout := bufio.NewWriter(os.Stdout)
	defer stdout.Flush()
	fp := machine()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *traceFlag)
	fpJSON, _ := json.Marshal(fp) // strings and ints only: cannot fail
	fmt.Fprintf(stdout, "machine %s\n", fpJSON)

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, log: stdout, outDir: outDir}
	res, err := fn(cfg)
	if err != nil {
		stdout.Flush()
		fail("%s: %v", *workload, err)
	}

	want := decl.endToEnd
	if cfg.trace {
		want = decl.perLayer
	}
	if err := sameNames(res.metrics, want); err != nil {
		stdout.Flush()
		fail("%s: %v", *workload, err)
	}
	g := res.gate
	fmt.Fprintf(stdout, "ops attempted %d, failed %d, fail_frac %g\n", g.attempted, g.failed, ratio(float64(g.failed), float64(g.attempted)))
	for _, msg := range g.first {
		fmt.Fprintf(stdout, "FAIL %s\n", msg)
	}
	printMetrics(stdout, res.metrics, want)

	out := jsonResult{Correct: g.failed == 0 && g.attempted > 0, Attempted: g.attempted, Failed: g.failed,
		Metrics: make(map[string]jsonMetric, len(want))}
	for _, d := range want {
		out.Metrics[d.Name] = jsonMetric{Value: res.metrics[d.Name], Unit: d.Unit}
	}
	rec := runRecord{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceFlag,
		Machine: fp, Result: out, FirstFailures: g.first}
	if path, err := rec.write(outDir); err != nil {
		fmt.Fprintf(stdout, "run record not written: %v\n", err)
	} else {
		fmt.Fprintf(stdout, "run record %s\n", path)
	}
	line, err := json.Marshal(out)
	if err != nil {
		stdout.Flush()
		fail("encode result: %v", err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		stdout.Flush()
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declared struct {
	endToEnd, perLayer []metricDecl
	workloads          []string
}

func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declarations (run from the repository root): %w", err)
	}
	var f struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	d := &declared{endToEnd: f.EndToEnd, perLayer: f.PerLayer}
	for _, w := range f.Workloads {
		d.workloads = append(d.workloads, w.Name)
	}
	return d, nil
}

// sameNames checks that a run measured exactly the declared metrics.
func sameNames(m metricSet, want []metricDecl) error {
	var missing, extra []string
	names := make(map[string]bool, len(want))
	for _, d := range want {
		names[d.Name] = true
		if _, ok := m[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	for n := range m {
		if !names[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("measured metrics differ from BENCHMARK.json: missing %v, undeclared %v", missing, extra)
	}
	return nil
}

func printMetrics(w io.Writer, m metricSet, want []metricDecl) {
	for _, d := range want {
		fmt.Fprintf(w, "  %-26s %18.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
}

// fingerprint states the machine a run measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
}

func machine() fingerprint {
	pct := debug.SetGCPercent(100)
	debug.SetGCPercent(pct)
	gogc := "off"
	if pct >= 0 {
		gogc = strconv.Itoa(pct)
	}
	return fingerprint{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GOGC: gogc}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runRecord is the file each run leaves next to its span files: the
// result together with the machine it was measured on.
type runRecord struct {
	Workload      string      `json:"workload"`
	Seed          int64       `json:"seed"`
	Seconds       int         `json:"seconds"`
	Trace         int         `json:"trace"`
	Machine       fingerprint `json:"machine"`
	Result        jsonResult  `json:"result"`
	FirstFailures []string    `json:"first_failures,omitempty"`
}

func (r *runRecord) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("run-%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// timeSetup runs setup setupRuns times, collecting garbage before each
// so every set-up starts from the same heap, and returns the last
// set-up with every duration in seconds. Every set-up but the last is
// torn down with discard.
func timeSetup[T any](setup func() (T, error), discard func(T)) (T, []float64, error) {
	var (
		v     T
		times []float64
	)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			discard(v)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return v, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return v, times, nil
}

// setupMedian times setupRuns more set-ups, each torn down with
// discard, and returns the median of these and the earlier durations.
// Untraced runs call it after the timed loop: a set-up takes a fraction
// of a second, and the machine's speed drifts over seconds, so set-ups
// at both ends of the run give a median that repeats from run to run
// where set-ups in one burst did not.
func setupMedian[T any](times []float64, setup func() (T, error), discard func(T)) (float64, error) {
	v, more, err := timeSetup(setup, discard)
	if err != nil {
		return 0, err
	}
	discard(v)
	return median(append(times, more...)), nil
}
