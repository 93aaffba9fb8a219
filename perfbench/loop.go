package main

import (
	"fmt"
	"math/rand"
	"time"
)

// closedLoop is one client that sends its next op only after the last
// one completes. It runs rounds of op over n items, each round a fresh
// permutation drawn from the seeded ord, until d has passed. It always
// finishes the round in progress, so the op mix is exact. op returns its
// own duration; the heap is sampled after every op. between, when
// non-nil, runs after every round. It returns the per-item durations
// (ms), the memory window and the op count.
func closedLoop(ord *rand.Rand, n int, d time.Duration, mem *memReader, op func(item int) time.Duration, between func(*memWindow)) (perItem, *memWindow, int) {
	times := make(perItem, n)
	win := startWindow(mem)
	ops := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for _, i := range ord.Perm(n) {
			times.add(i, ms(op(i)))
			win.sample()
			ops++
		}
		if between != nil {
			between(win)
		}
	}
	return times, win, ops
}

// closedLoopMetrics fills the timing and memory end-to-end metrics of a
// closed loop. ops_per_s is the client's rate while busy: ops over the
// summed op time.
func closedLoopMetrics(m metricSet, times perItem, win *memWindow, ops int) {
	all := times.all()
	m.set("sweep_ms", times.sweep())
	m.set("ops_per_s", ratio(float64(ops), sum(all)/1e3))
	m.set("op_ms_p50", quantile(all, 0.5))
	m.set("op_ms_p90", quantile(all, 0.9))
	m.set("alloc_mb_per_op", ratio(win.allocMB(), float64(ops)))
	m.set("live_heap_mb_p90", win.liveP90MB())
}

// gcPerKop is collector cycles per thousand ops over a window.
func gcPerKop(win *memWindow, ops int) float64 {
	return ratio(1000*win.gcCycles(), float64(ops))
}

// reportTrace prints the per-layer table and the tracing overhead, and
// writes the spans out. untraced and traced are the same quantity
// measured without and with spans.
func reportTrace(cfg runConfig, tr *tracer, ls map[string]*layerStat, workload, what string, untraced, traced float64) {
	fmt.Fprintf(cfg.log, "per-layer self time, calls and allocations (%s, traced run):\n", workload)
	printLayers(cfg.log, ls)
	fmt.Fprintf(cfg.log, "tracing overhead (%s): %s untraced %.3f ms, traced %.3f ms, traced-minus-untraced %+.3f ms (%+.2f%%)\n",
		workload, what, untraced, traced, traced-untraced, 100*(ratio(traced, untraced)-1))
	path, err := tr.write(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.seed))
	if err != nil {
		fmt.Fprintf(cfg.log, "spans not written: %v\n", err)
		return
	}
	fmt.Fprintf(cfg.log, "%d spans written to %s\n", len(tr.spans), path)
}
