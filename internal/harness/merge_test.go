package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMergeReportKeepsSections writes the three BENCH.json sections in
// turn, the way -exp load, -exp chaos and -exp bench do: each write
// replaces only its own section, and a section the report type no
// longer carries is dropped.
func TestMergeReportKeepsSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	old := `{"go_version":"go0","cpus":1,"bench_time":"1s","rows":[{"workload":"old"}],"partitioned":[{"workload":"gone"}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	load := []LoadRow{{RateRPS: 20, OK: 200}}
	chaos := []ChaosRow{{Schedule: "peer-kill", OK: 45}}
	if err := MergeReport(path, &BenchReport{Load: load}); err != nil {
		t.Fatal(err)
	}
	if err := MergeReport(path, &BenchReport{Chaos: chaos}); err != nil {
		t.Fatal(err)
	}
	bench := &BenchReport{GoVersion: "go1", CPUs: 2, BenchTime: "200ms",
		Rows: []BenchRow{{Workload: "mesa"}}, Parallel: []ParallelRow{{Workload: "mesa", Workers: 2}}}
	if err := MergeReport(path, bench); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "partitioned") {
		t.Error("stale partitioned section survived a write")
	}
	var got BenchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != "go1" || got.CPUs != 2 || got.BenchTime != "200ms" {
		t.Errorf("machine fields = %q/%d/%q, want the bench write's", got.GoVersion, got.CPUs, got.BenchTime)
	}
	if len(got.Rows) != 1 || got.Rows[0].Workload != "mesa" || len(got.Parallel) != 1 {
		t.Errorf("bench section not replaced: rows %+v parallel %+v", got.Rows, got.Parallel)
	}
	if len(got.Load) != 1 || got.Load[0] != load[0] {
		t.Errorf("load rows lost by a later write: %+v", got.Load)
	}
	if len(got.Chaos) != 1 || got.Chaos[0] != chaos[0] {
		t.Errorf("chaos rows lost by a later write: %+v", got.Chaos)
	}

	// An unreadable report is reported, not clobbered.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MergeReport(path, bench); err == nil {
		t.Error("merged over an unparseable report")
	}
	if data, _ := os.ReadFile(path); string(data) != "{torn" {
		t.Error("unparseable report was overwritten")
	}
}
