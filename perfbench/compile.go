package main

import (
	"fmt"
	"math/rand"
	"time"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/opt"
)

// compileItem is one (kernel, level) pair of the compile workload.
type compileItem struct {
	k     *kernel
	name  string
	level opt.Level

	// first is the first compilation's structure; every repeat must
	// reproduce it.
	first     shape
	haveShape bool
	// mod is the latest compilation's lowered module, kept until a
	// verification run uses it.
	mod *codegen.Module
	// ref is the first verification run's outcome; every later
	// verification run must reproduce it.
	ref  outcome
	have bool
	// verifyMS are the durations of the verification runs made during
	// the timed loop.
	verifyMS []float64
	counts   phaseCounts
	counted  bool
}

var levels = []opt.Level{opt.None, opt.Basic, opt.Medium, opt.Full}

// setupCompile lists every Table-2 kernel at each of the four levels and
// computes each kernel's oracle value.
func setupCompile() ([]*compileItem, error) {
	ks, _, err := kernels()
	if err != nil {
		return nil, err
	}
	var items []*compileItem
	for _, k := range ks {
		for _, l := range levels {
			items = append(items, &compileItem{k: k, name: fmt.Sprintf("%s/O%d", k.w.Name, l), level: l})
		}
	}
	return items, nil
}

// checkShape checks one compilation against the item's first.
func (it *compileItem) checkShape(g *gate, s shape) {
	switch {
	case !it.haveShape:
		it.first, it.haveShape = s, true
		g.pass()
	case s != it.first:
		g.fail("%s: compilation %+v differs from first %+v", it.name, s, it.first)
	default:
		g.pass()
	}
}

// verify simulates the item's latest module on the default (perfect
// memory) configuration and checks it against the oracle and the first
// verification run. It returns the run's duration.
func (it *compileItem) verify(g *gate) time.Duration {
	if it.mod == nil {
		return 0
	}
	t0 := time.Now()
	r, err := it.mod.Run(it.k.w.Entry, nil, dataflow.DefaultConfig())
	d := time.Since(t0)
	g.checkRun(it.name+" (verify)", it.k.oracle, &it.ref, &it.have, r, err)
	return d
}

// verifyPerRound is how many items have their latest compilation
// simulated after each timed round.
const verifyPerRound = 2

// runCompile is the closed loop whose op is core.CompileSource of one
// kernel at one level followed by codegen lowering.
func runCompile(cfg runConfig) (*result, error) {
	items, setupTimes, err := timeSetup(setupCompile, func([]*compileItem) {})
	if err != nil {
		return nil, err
	}
	res := &result{metrics: metricSet{}}
	g := &res.gate
	n := len(items)
	ord := rand.New(rand.NewSource(cfg.seed))
	compile := func(i int) time.Duration {
		it := items[i]
		t0 := time.Now()
		cp, err := core.CompileSource(it.k.w.Source, core.WithLevel(it.level))
		var mod *codegen.Module
		if err == nil {
			mod = codegen.Compile(cp.Program)
		}
		d := time.Since(t0)
		if err != nil {
			g.fail("%s: %v", it.name, err)
			return d
		}
		it.checkShape(g, shapeOf(cp.Program))
		it.mod = mod
		return d
	}

	// The first round is untimed warm-up; every item's first compilation
	// is simulated against the oracle.
	for _, i := range ord.Perm(n) {
		compile(i)
		items[i].verify(g)
	}

	// After every timed round the next items of a seeded cycle have their
	// fresh compilation simulated, outside the op timing and the
	// allocation count: repeats must reproduce the first round's results
	// bit for bit, and the runs time the circuits this workload produced.
	var verifyOrder []int
	between := func(win *memWindow) {
		win.exclude(func() {
			for j := 0; j < verifyPerRound; j++ {
				if len(verifyOrder) == 0 {
					verifyOrder = ord.Perm(n)
				}
				it := items[verifyOrder[0]]
				verifyOrder = verifyOrder[1:]
				it.verifyMS = append(it.verifyMS, ms(it.verify(g)))
				// Drop the module, and the VM it pooled, so verification
				// does not grow the compile loop's live heap.
				it.mod = nil
			}
		})
	}
	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	mem := newMemReader()
	times, win, ops := closedLoop(ord, n, measure, mem, compile, between)
	fmt.Fprintf(cfg.log, "compile: %d items, %d timed ops\n", n, ops)

	m := res.metrics
	if !cfg.trace {
		var events, cycles, memOps int64
		verifySweep := 0.0
		for _, it := range items {
			events += it.ref.events
			cycles += it.ref.cycles
			memOps += int64(it.first.memOps)
			verifySweep += median(it.verifyMS)
		}
		setupS, err := setupMedian(setupTimes, setupCompile, func([]*compileItem) {})
		if err != nil {
			return nil, err
		}
		m.set("setup_s", setupS)
		closedLoopMetrics(m, times, win, ops)
		m.set("sim_events_per_s", ratio(float64(events), verifySweep/1e3))
		m.set("sim_cycles", float64(cycles))
		m.set("static_mem_ops", float64(memOps))
		return res, nil
	}

	// Traced run: the same compilations one layer call at a time.
	tr := newTracer(mem)
	var id int64
	ttimes, _, _ := closedLoop(ord, n, measure, mem, func(i int) time.Duration {
		it := items[i]
		id++
		var counts *phaseCounts
		if !it.counted {
			counts, it.counted = &it.counts, true
		}
		p, op, err := tracedCompile(tr, id, it.k.w.Source, opt.LevelOptions(it.level), true, counts)
		if err != nil {
			g.fail("%s (traced): %v", it.name, err)
		} else {
			it.checkShape(g, shapeOf(p))
		}
		return tr.spans[op].dur()
	}, nil)
	ls := tr.layers()
	cs := make([]phaseCounts, n)
	for i, it := range items {
		cs[i] = it.counts
	}
	compileLayerMetrics(m, ls)
	countMetrics(m, cs)
	simLayerMetrics(m, layer(ls, "codegen.Run"), layer(ls, "dataflow.Run"))
	memsysMetrics(m, nil)
	serveLayerMetrics(m, nil)
	m.set("gc.cycles_per_kop", gcPerKop(win, ops))
	m.set("trace.overhead_frac", ratio(ttimes.sweep(), times.sweep())-1)
	reportTrace(cfg, tr, ls, "compile", "sweep", times.sweep(), ttimes.sweep())
	return res, nil
}
