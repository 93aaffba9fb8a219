package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"spatial/api"
	"spatial/client"
	"spatial/internal/cashd"
	"spatial/internal/dataflow"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/serve"
)

const (
	// serveRate is the open loop's offered rate in requests per second,
	// well below the knee where the backlog starts to grow on a
	// two-CPU machine (about 30 req/s).
	serveRate = 15
	// missEvery makes every missEvery-th request a cache miss (20%).
	missEvery = 5
	// requestTimeout bounds one request, retries included.
	requestTimeout = 20 * time.Second
)

// serveRig is an in-process cashd server behind a real loopback HTTP
// server, with one client using at most nproc connections.
type serveRig struct {
	srv *cashd.Server
	ts  *httptest.Server
	tr  *http.Transport
	cl  *client.Client
	ks  []*kernel
	// hot are the kernels at their preset level (Full) on the wire
	// defaults: interpreter backend, perfect memory.
	hot []api.Program
}

// setupServe starts the service and warms its compile cache with every
// hot program through the client.
func setupServe() (*serveRig, error) {
	ks, _, err := kernels()
	if err != nil {
		return nil, err
	}
	srv, err := cashd.New(cashd.Config{})
	if err != nil {
		return nil, err
	}
	r := &serveRig{srv: srv, ts: httptest.NewServer(srv.Handler()), ks: ks}
	nproc := runtime.NumCPU()
	r.tr = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	r.cl, err = client.New(client.Config{Peers: []string{r.ts.URL}, HTTPClient: &http.Client{Transport: r.tr}})
	if err != nil {
		r.close()
		return nil, err
	}
	for _, k := range ks {
		p := api.Program{Source: k.w.Source, Level: api.LevelFull}
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		_, err := r.cl.Compile(ctx, p)
		cancel()
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warm %s: %w", k.w.Name, err)
		}
		r.hot = append(r.hot, p)
	}
	return r, nil
}

func (r *serveRig) close() {
	r.ts.Close()
	r.tr.CloseIdleConnections()
	r.srv.Close()
}

// request is one scheduled request of the open loop.
type request struct {
	kernel int
	miss   bool
	prog   api.Program
	passes opt.Options
}

// reqRecord is what one request measured. All times are wall-clock;
// latency counts from the due time, so a stall also charges the
// requests it delayed.
type reqRecord struct {
	due, sent, done time.Time
	resp            *api.RunResponse
	err             error
}

func (rec *reqRecord) latency() time.Duration { return rec.done.Sub(rec.due) }

// run sends one request through the client.
func (r *serveRig) run(rq request) (*api.RunResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return r.cl.Run(ctx, api.RunRequest{Program: rq.prog, Entry: r.ks[rq.kernel].w.Entry})
}

// hotLatencies collects the hot requests' latencies (ms) per kernel.
func hotLatencies(n int, sched []request, recs []reqRecord) perItem {
	p := make(perItem, n)
	for i, rq := range sched {
		if !rq.miss {
			p.add(rq.kernel, ms(recs[i].latency()))
		}
	}
	return p
}

// schedule builds count requests: every missEvery-th is a miss, the rest
// hot. Hot requests visit every kernel once per round, misses likewise,
// each round in a seeded order. A miss compiles its kernel with a seeded
// pass subset (the paper's Table 1 ablation traffic) not used before in
// this run, so it is a real compile-cache miss.
func schedule(ord *rand.Rand, used map[[2]int]bool, hot []api.Program, count int) []request {
	n := len(hot)
	var hotOrder, missOrder []int
	out := make([]request, count)
	for i := range out {
		if (i+1)%missEvery != 0 {
			if len(hotOrder) == 0 {
				hotOrder = ord.Perm(n)
			}
			k := hotOrder[0]
			hotOrder = hotOrder[1:]
			out[i] = request{kernel: k, prog: hot[k]}
			continue
		}
		if len(missOrder) == 0 {
			missOrder = ord.Perm(n)
		}
		k := missOrder[0]
		missOrder = missOrder[1:]
		mask := ord.Intn(1 << 13)
		for used[[2]int{k, mask}] {
			mask = ord.Intn(1 << 13)
		}
		used[[2]int{k, mask}] = true
		wire, passes := passesFromMask(mask)
		out[i] = request{kernel: k, miss: true, passes: passes,
			prog: api.Program{Source: hot[k].Source, Passes: &wire}}
	}
	return out
}

// passesFromMask turns a 13-bit mask into one pass subset, as wire
// toggles and as the optimizer's options.
func passesFromMask(mask int) (api.Passes, opt.Options) {
	b := func(i int) bool { return mask&(1<<i) != 0 }
	o := opt.Options{
		ConstFold: b(0), CSE: b(1), DCE: b(2),
		DeadMemOps: b(3), TokenRemoval: b(4), TransitiveReduction: b(5),
		MemMerge: b(6), StoreBeforeStore: b(7), LoadAfterStore: b(8), LICM: b(9),
		ReadOnlyLoops: b(10), MonotoneLoops: b(11), LoopDecouple: b(12),
	}
	return api.Passes{
		ConstFold: o.ConstFold, CSE: o.CSE, DCE: o.DCE,
		DeadMemOps: o.DeadMemOps, TokenRemoval: o.TokenRemoval, TransitiveReduction: o.TransitiveReduction,
		MemMerge: o.MemMerge, StoreBeforeStore: o.StoreBeforeStore, LoadAfterStore: o.LoadAfterStore, LICM: o.LICM,
		ReadOnlyLoops: o.ReadOnlyLoops, MonotoneLoops: o.MonotoneLoops, LoopDecouple: o.LoopDecouple,
	}, o
}

// openLoop sends the scheduled requests at serveRate regardless of
// completions, one goroutine per request, and waits for all of them.
// With tr non-nil every request records a span for its time from due to
// done and one for the client call inside it. The heap is sampled at
// every send.
func (r *serveRig) openLoop(sched []request, win *memWindow, tr *tracer, firstID int64) []reqRecord {
	recs := make([]reqRecord, len(sched))
	interval := time.Second / serveRate
	start := time.Now().Add(interval)
	var wg sync.WaitGroup
	for i := range sched {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		win.sample()
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			rec := &recs[i]
			rec.due, rec.sent = due, time.Now()
			rec.resp, rec.err = r.run(sched[i])
			rec.done = time.Now()
			if tr == nil {
				return
			}
			id := firstID + int64(i)
			root := tr.add(span{Name: "loadgen.request", Op: id, Parent: -1, Start: tr.since(due), End: tr.since(rec.done)})
			c := span{Name: "client.Run", Op: id, Parent: root, Start: tr.since(rec.sent), End: tr.since(rec.done)}
			if rec.resp != nil {
				c.Events, c.WaitNS, c.TotalNS = rec.resp.Stats.Events, rec.resp.WaitNS, rec.resp.TotalNS
			}
			tr.add(c)
		}(i, due)
	}
	wg.Wait()
	win.sample()
	return recs
}

// serveRefs holds each hot kernel's reference result.
type serveRefs struct {
	ref  []outcome
	have []bool
}

// check checks every request: hot results must equal the kernel's
// reference bit for bit, miss results must carry the oracle value.
func (r *serveRig) check(g *gate, refs *serveRefs, sched []request, recs []reqRecord) {
	for i, rq := range sched {
		k := r.ks[rq.kernel]
		rec := &recs[i]
		var got outcome
		if rec.err == nil {
			got = outcome{rec.resp.Value, rec.resp.Stats.Cycles, rec.resp.Stats.Events}
		}
		if rq.miss {
			var ref outcome
			have := false
			g.check(k.w.Name+" (miss)", k.oracle, &ref, &have, got, rec.err)
			continue
		}
		g.check(k.w.Name, k.oracle, &refs.ref[rq.kernel], &refs.have[rq.kernel], got, rec.err)
	}
}

// runServe is the open loop against the in-process service.
func runServe(cfg runConfig) (*result, error) {
	rig, setupTimes, err := timeSetup(setupServe, func(r *serveRig) { r.close() })
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res := &result{metrics: metricSet{}}
	g := &res.gate
	n := len(rig.hot)
	ord := rand.New(rand.NewSource(cfg.seed))
	used := make(map[[2]int]bool)
	refs := &serveRefs{ref: make([]outcome, n), have: make([]bool, n)}

	// Untimed warm-up: one closed-loop request per hot program records
	// the references.
	warm := make([]request, n)
	warmRecs := make([]reqRecord, n)
	for i, k := range ord.Perm(n) {
		warm[i] = request{kernel: k, prog: rig.hot[k]}
		warmRecs[i].resp, warmRecs[i].err = rig.run(warm[i])
	}
	rig.check(g, refs, warm, warmRecs)

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	count := int(measure.Seconds() * serveRate)
	mem := newMemReader()
	sched := schedule(ord, used, rig.hot, count)
	win := startWindow(mem)
	recs := rig.openLoop(sched, win, nil, 0)
	rig.check(g, refs, sched, recs)
	hotTimes := hotLatencies(n, sched, recs)
	fmt.Fprintf(cfg.log, "serve: %d hot programs, %d requests at %d/s (%d misses)\n",
		n, len(sched), serveRate, len(sched)/missEvery)

	m := res.metrics
	if !cfg.trace {
		var lat []float64
		var events, busyNS int64
		ok := 0
		first, last := recs[0].due, recs[0].done
		for i := range recs {
			rec := &recs[i]
			lat = append(lat, ms(rec.latency()))
			if rec.done.After(last) {
				last = rec.done
			}
			if rec.err == nil {
				ok++
				events += rec.resp.Stats.Events
				busyNS += rec.resp.TotalNS - rec.resp.WaitNS
			}
		}
		var cycles, memOps int64
		for k, p := range rig.hot {
			cycles += refs.ref[k].cycles
			cp, _, err := rig.srv.Engine().Resolve(context.Background(), serve.Request{Program: p})
			if err != nil {
				return nil, fmt.Errorf("resolve %s: %w", rig.ks[k].w.Name, err)
			}
			l, s := cp.StaticMemOps()
			memOps += int64(l + s)
		}
		setupS, err := setupMedian(setupTimes, setupServe, func(r *serveRig) { r.close() })
		if err != nil {
			return nil, err
		}
		m.set("setup_s", setupS)
		m.set("sweep_ms", hotTimes.sweep())
		m.set("ops_per_s", ratio(float64(ok), last.Sub(first).Seconds()))
		m.set("op_ms_p50", quantile(lat, 0.5))
		m.set("op_ms_p90", quantile(lat, 0.9))
		m.set("sim_events_per_s", ratio(float64(events), float64(busyNS)/1e9))
		m.set("sim_cycles", float64(cycles))
		m.set("static_mem_ops", float64(memOps))
		m.set("alloc_mb_per_op", ratio(win.allocMB(), float64(len(sched))))
		m.set("live_heap_mb_p90", win.liveP90MB())
		return res, nil
	}

	// Traced run: a second open loop with spans, then each layer the
	// service drives, called directly on this run's inputs.
	tr := newTracer(mem)
	tsched := schedule(ord, used, rig.hot, count)
	twin := startWindow(mem)
	trecs := rig.openLoop(tsched, twin, tr, 1)
	rig.check(g, refs, tsched, trecs)
	tHotTimes := hotLatencies(n, tsched, trecs)
	id := int64(len(tsched)) + 1
	mstats := rig.isolateRuns(g, tr, refs, &id)
	var cs []phaseCounts
	for _, rq := range tsched {
		if !rq.miss {
			continue
		}
		var c phaseCounts
		if _, _, err := tracedCompile(tr, id, rq.prog.Source, rq.passes, false, &c); err != nil {
			g.fail("%s (traced miss compile): %v", rig.ks[rq.kernel].w.Name, err)
		}
		cs = append(cs, c)
		id++
	}
	ls := tr.layers()
	compileLayerMetrics(m, ls)
	countMetrics(m, cs)
	simLayerMetrics(m, layer(ls, "codegen.Run"), layer(ls, "dataflow.Run"))
	memsysMetrics(m, mstats)
	serveLayerMetrics(m, trecs)
	m.set("gc.cycles_per_kop", gcPerKop(win, len(sched)))
	m.set("trace.overhead_frac", ratio(tHotTimes.sweep(), hotTimes.sweep())-1)
	reportTrace(cfg, tr, ls, "serve", "hot sweep", hotTimes.sweep(), tHotTimes.sweep())
	return res, nil
}

// isolateRuns runs every hot program twice on the interpreter directly
// (dataflow.Shared.Run on the service's cached compilation and
// configuration), one span per run, and returns the memory-system
// statistics of the first pass.
func (r *serveRig) isolateRuns(g *gate, tr *tracer, refs *serveRefs, id *int64) []memsys.Stats {
	mstats := make([]memsys.Stats, len(r.hot))
	for pass := 0; pass < 2; pass++ {
		for k, p := range r.hot {
			cp, _, err := r.srv.Engine().Resolve(context.Background(), serve.Request{Program: p})
			if err != nil {
				g.fail("%s (resolve): %v", r.ks[k].w.Name, err)
				continue
			}
			sh := dataflow.Prebuild(cp.Program)
			s := tr.begin("dataflow.Run", *id, -1)
			res, err := sh.Run(r.ks[k].w.Entry, nil, cp.Sim)
			tr.end(s)
			*id++
			if err == nil {
				tr.spans[s].Events = res.Stats.Events
				if pass == 0 {
					mstats[k] = res.Stats.Mem
				}
			}
			g.checkRun(r.ks[k].w.Name+" (direct)", r.ks[k].oracle, &refs.ref[k], &refs.have[k], res, err)
		}
	}
	return mstats
}

// serveLayerMetrics fills the service stage metrics of an open loop;
// nil recs (a workload that bypasses the service) gives zeros.
func serveLayerMetrics(m metricSet, recs []reqRecord) {
	var wait, resid, hit, miss, over []float64
	hits, ok := 0, 0
	late := 0.0
	for i := range recs {
		rec := &recs[i]
		if l := ms(rec.sent.Sub(rec.due)); l > late {
			late = l
		}
		if rec.err != nil {
			continue
		}
		ok++
		rs := rec.resp
		wait = append(wait, float64(rs.WaitNS)/1e6)
		resid = append(resid, float64(rs.TotalNS-rs.WaitNS)/1e6)
		over = append(over, ms(rec.done.Sub(rec.sent))-float64(rs.TotalNS)/1e6)
		if rs.CacheHit {
			hits++
			hit = append(hit, ms(rec.latency()))
		} else {
			miss = append(miss, ms(rec.latency()))
		}
	}
	m.set("serve.queue_wait_ms_p50", quantile(wait, 0.5))
	m.set("serve.queue_wait_ms_p90", quantile(wait, 0.9))
	m.set("serve.residence_ms_p50", quantile(resid, 0.5))
	m.set("serve.hit_ms_p50", quantile(hit, 0.5))
	m.set("serve.miss_ms_p50", quantile(miss, 0.5))
	m.set("serve.cache_hit_frac", ratio(float64(hits), float64(ok)))
	m.set("cashd.overhead_ms_p50", quantile(over, 0.5))
	m.set("loadgen.late_ms_max", late)
}
