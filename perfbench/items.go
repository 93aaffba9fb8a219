package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"spatial/internal/build"
	"spatial/internal/cminor"
	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/interp"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
	"spatial/internal/workloads"
)

// kernel is one Table-2 workload with its reference result.
type kernel struct {
	w *workloads.Workload
	// oracle is the entry function's value under the internal/interp
	// oracle, computed on the kernel's O0 graph.
	oracle int64
}

// kernels compiles every Table-2 kernel at O0 with opts and computes
// its oracle value. It returns the kernels and their O0 programs.
func kernels(opts ...core.Option) ([]*kernel, []*core.Compiled, error) {
	var ks []*kernel
	var cps []*core.Compiled
	for _, w := range workloads.All() {
		cp, err := core.CompileSource(w.Source, append([]core.Option{core.WithLevel(opt.None)}, opts...)...)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		r, err := interp.New(cp.Program, memsys.PerfectConfig()).Run(w.Entry, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: oracle: %w", w.Name, err)
		}
		ks = append(ks, &kernel{w: w, oracle: r.Value})
		cps = append(cps, cp)
	}
	return ks, cps, nil
}

// outcome is the part of a simulation result every repeat must
// reproduce bit for bit.
type outcome struct{ value, cycles, events int64 }

func outcomeOf(r *dataflow.Result) outcome {
	return outcome{r.Value, r.Stats.Cycles, r.Stats.Events}
}

// gate is the run's correctness record: every checked op is attempted,
// and every wrong, errored or shed op is failed.
type gate struct {
	attempted, failed int
	first             []string
}

func (g *gate) pass() { g.attempted++ }

func (g *gate) fail(format string, args ...any) {
	g.attempted++
	g.failed++
	if len(g.first) < 5 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
}

// check checks one simulation outcome: the first result of an item
// must carry the oracle value and becomes the item's reference; every
// later result must equal the reference exactly.
func (g *gate) check(name string, oracle int64, ref *outcome, have *bool, got outcome, err error) {
	switch {
	case err != nil:
		g.fail("%s: %v", name, err)
	case !*have && got.value != oracle:
		g.fail("%s: value %d, oracle %d", name, got.value, oracle)
	case !*have:
		*ref, *have = got, true
		g.pass()
	case got != *ref:
		g.fail("%s: repeat %+v differs from first result %+v", name, got, *ref)
	default:
		g.pass()
	}
}

// checkRun is check for a simulator result.
func (g *gate) checkRun(name string, oracle int64, ref *outcome, have *bool, r *dataflow.Result, err error) {
	var got outcome
	if err == nil {
		got = outcomeOf(r)
	}
	g.check(name, oracle, ref, have, got, err)
}

// shape is a compiled program's structural fingerprint: enough to tell
// two compilations of one item apart without simulating them.
type shape struct {
	memOps int
	hash   uint64
}

func shapeOf(p *pegasus.Program) shape {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var s shape
	for _, n := range names {
		g := p.Funcs[n]
		live := g.NumLive()
		l, st := g.CountMemOps()
		s.memOps += l + st
		fmt.Fprintf(h, "%s:%d:%d:%d:%d;", n, live, g.MaxID(), l, st)
	}
	s.hash = h.Sum64()
	return s
}

// memOps counts a program's live loads and stores.
func memOps(p *pegasus.Program) int {
	n := 0
	for _, g := range p.Funcs {
		l, s := g.CountMemOps()
		n += l + s
	}
	return n
}

// liveNodes counts a program's live nodes.
func liveNodes(p *pegasus.Program) int {
	n := 0
	for _, g := range p.Funcs {
		n += g.NumLive()
	}
	return n
}

// phaseCounts are the exact compiler counts one traced compile records.
type phaseCounts struct{ buildNodes, buildMemOps, optNodes, optMemOps int }

// tracedCompile compiles src phase by phase, one span per layer call,
// under a root span "compile.op" that covers the same work as the
// core.CompileSource façade (plus lowering when lower is set). The
// dataflow.Prebuild the interpreter pays on a program's first run gets
// its own root span. With counts non-nil it also records the node and
// memory-op counts after build and after opt (inside the op span, so
// callers ask for them once per item). It returns the program and the
// index of the op span.
func tracedCompile(tr *tracer, id int64, src string, passes opt.Options, lower bool, counts *phaseCounts) (*pegasus.Program, int, error) {
	op := tr.begin("compile.op", id, -1)
	s := tr.begin("cminor.Parse", id, op)
	prog, err := cminor.Parse(src)
	tr.end(s)
	if err != nil {
		tr.end(op)
		return nil, op, err
	}
	s = tr.begin("cminor.Check", id, op)
	err = cminor.Check(prog)
	tr.end(s)
	if err != nil {
		tr.end(op)
		return nil, op, err
	}
	s = tr.begin("build.Compile", id, op)
	p, err := build.Compile(prog)
	tr.end(s)
	if err != nil {
		tr.end(op)
		return nil, op, err
	}
	if counts != nil {
		counts.buildNodes, counts.buildMemOps = liveNodes(p), memOps(p)
	}
	s = tr.begin("opt.Optimize", id, op)
	err = opt.Optimize(p, passes)
	tr.end(s)
	if err != nil {
		tr.end(op)
		return nil, op, err
	}
	if counts != nil {
		counts.optNodes, counts.optMemOps = liveNodes(p), memOps(p)
	}
	if lower {
		s = tr.begin("codegen.Compile", id, op)
		codegen.Compile(p)
		tr.end(s)
	}
	tr.end(op)
	s = tr.begin("dataflow.Prebuild", id, -1)
	dataflow.Prebuild(p)
	tr.end(s)
	return p, op, nil
}

// compileLayerMetrics fills the compiler per-layer metrics from the
// spans: mean self time per call, in milliseconds.
func compileLayerMetrics(m metricSet, ls map[string]*layerStat) {
	m.set("cminor.parse_ms", layer(ls, "cminor.Parse").meanSelfMS())
	m.set("cminor.check_ms", layer(ls, "cminor.Check").meanSelfMS())
	m.set("build.ms", layer(ls, "build.Compile").meanSelfMS())
	m.set("opt.ms", layer(ls, "opt.Optimize").meanSelfMS())
	m.set("codegen.lower_ms", layer(ls, "codegen.Compile").meanSelfMS())
	m.set("dataflow.prebuild_ms", layer(ls, "dataflow.Prebuild").meanSelfMS())
}

// countMetrics fills the exact compiler counts, summed over items.
func countMetrics(m metricSet, cs []phaseCounts) {
	var c phaseCounts
	for _, x := range cs {
		c.buildNodes += x.buildNodes
		c.buildMemOps += x.buildMemOps
		c.optNodes += x.optNodes
		c.optMemOps += x.optMemOps
	}
	m.set("build.nodes", float64(c.buildNodes))
	m.set("opt.nodes", float64(c.optNodes))
	m.set("opt.mem_ops_removed", float64(c.buildMemOps-c.optMemOps))
}

// simLayerMetrics fills the simulator per-run metrics from the spans
// around codegen.Module.Run (the compiled VM) and dataflow.Shared.Run
// (the interpreter).
func simLayerMetrics(m metricSet, vm, df *layerStat) {
	m.set("codegen.run_ns_per_event", ratio(float64(vm.Self), float64(vm.Events)))
	m.set("codegen.alloc_kb_per_run", ratio(float64(vm.AllocBytes)/1e3, float64(vm.Count)))
	m.set("codegen.mallocs_per_run", ratio(float64(vm.AllocObjects), float64(vm.Count)))
	m.set("dataflow.run_ns_per_event", ratio(float64(df.Self), float64(df.Events)))
	m.set("dataflow.alloc_kb_per_run", ratio(float64(df.AllocBytes)/1e3, float64(df.Count)))
}

// memsysMetrics fills the memory-system counts of one pass over items.
func memsysMetrics(m metricSet, stats []memsys.Stats) {
	var hits, misses, stall int64
	for _, s := range stats {
		hits += s.L1Hits
		misses += s.L1Misses
		stall += s.StallCycles
	}
	m.set("memsys.l1_miss_frac", ratio(float64(misses), float64(hits+misses)))
	m.set("memsys.stall_cycles", float64(stall))
}
