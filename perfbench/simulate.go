package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/memsys"
	"spatial/internal/opt"
)

// simItem is one program of the simulate workload.
type simItem struct {
	k    *kernel
	name string
	cp   *core.Compiled
	ref  outcome
	have bool
}

// setupSimulate compiles every Table-2 kernel at O0 and at O3 for the
// compiled VM against the paper's realistic two-port memory system, and
// computes each kernel's oracle value.
func setupSimulate() ([]*simItem, error) {
	opts := []core.Option{core.WithBackend(core.BackendCompiled), core.WithMemory(core.PaperMemory(2))}
	ks, o0, err := kernels(opts...)
	if err != nil {
		return nil, err
	}
	var items []*simItem
	for i, k := range ks {
		o3, err := core.CompileSource(k.w.Source, append([]core.Option{core.WithLevel(opt.Full)}, opts...)...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.w.Name, err)
		}
		items = append(items,
			&simItem{k: k, name: k.w.Name + "/O0", cp: o0[i]},
			&simItem{k: k, name: k.w.Name + "/O3", cp: o3})
	}
	return items, nil
}

// runSimulate is the closed loop whose op is one Compiled.Run: the
// simulator host speed a paper sweep waits on.
func runSimulate(cfg runConfig) (*result, error) {
	items, setupTimes, err := timeSetup(setupSimulate, func([]*simItem) {})
	if err != nil {
		return nil, err
	}
	res := &result{metrics: metricSet{}}
	g := &res.gate
	n := len(items)
	ord := rand.New(rand.NewSource(cfg.seed))
	run := func(i int) (time.Duration, *dataflow.Result) {
		it := items[i]
		t0 := time.Now()
		r, err := it.cp.Run(it.k.w.Entry, nil)
		d := time.Since(t0)
		g.checkRun(it.name, it.k.oracle, &it.ref, &it.have, r, err)
		return d, r
	}

	// The first round is untimed warm-up; it lowers every program and
	// records the reference results.
	mstats := make([]memsys.Stats, n)
	for _, i := range ord.Perm(n) {
		if _, r := run(i); r != nil {
			mstats[i] = r.Stats.Mem
		}
	}

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	mem := newMemReader()
	times, win, ops := closedLoop(ord, n, measure, mem, func(i int) time.Duration {
		d, _ := run(i)
		return d
	}, nil)
	fmt.Fprintf(cfg.log, "simulate: %d programs, %d timed ops\n", n, ops)

	m := res.metrics
	if !cfg.trace {
		var events, cycles, memOps int64
		for _, it := range items {
			events += it.ref.events
			cycles += it.ref.cycles
			l, s := it.cp.StaticMemOps()
			memOps += int64(l + s)
		}
		setupS, err := setupMedian(setupTimes, setupSimulate, func([]*simItem) {})
		if err != nil {
			return nil, err
		}
		m.set("setup_s", setupS)
		closedLoopMetrics(m, times, win, ops)
		m.set("sim_events_per_s", ratio(float64(events), times.sweep()/1e3))
		m.set("sim_cycles", float64(cycles))
		m.set("static_mem_ops", float64(memOps))
		return res, nil
	}

	// Traced run: the same ops through codegen.Module.Run directly, one
	// span around the VM call inside one span per op.
	mods := make([]*codegen.Module, n)
	for i, it := range items {
		mods[i] = codegen.Compile(it.cp.Program)
	}
	tr := newTracer(mem)
	var id int64
	ttimes, _, _ := closedLoop(ord, n, measure, mem, func(i int) time.Duration {
		it := items[i]
		id++
		op := tr.begin("simulate.op", id, -1)
		c := tr.begin("codegen.Run", id, op)
		r, err := mods[i].RunCtx(context.Background(), it.k.w.Entry, nil, it.cp.Sim)
		tr.end(c)
		tr.end(op)
		if err == nil {
			tr.spans[c].Events = r.Stats.Events
		}
		g.checkRun(it.name, it.k.oracle, &it.ref, &it.have, r, err)
		return tr.spans[op].dur()
	}, nil)
	ls := tr.layers()
	compileLayerMetrics(m, ls)
	countMetrics(m, nil)
	simLayerMetrics(m, layer(ls, "codegen.Run"), layer(ls, "dataflow.Run"))
	memsysMetrics(m, mstats)
	serveLayerMetrics(m, nil)
	m.set("gc.cycles_per_kop", gcPerKop(win, ops))
	m.set("trace.overhead_frac", ratio(ttimes.sweep(), times.sweep())-1)
	reportTrace(cfg, tr, ls, "simulate", "sweep", times.sweep(), ttimes.sweep())
	return res, nil
}
