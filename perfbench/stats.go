package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks; 0 for an empty slice. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perItem collects op durations per item, so that a run aggregates per
// item before it aggregates across items and the op mix never changes
// what a sweep means.
type perItem [][]float64

func (p perItem) add(item int, v float64) { p[item] = append(p[item], v) }

// sweep is the sum over items of each item's median: the time of one
// pass over every item with per-item noise filtered out.
func (p perItem) sweep() float64 {
	t := 0.0
	for _, xs := range p {
		t += median(xs)
	}
	return t
}

// all pools every sample across items.
func (p perItem) all() []float64 {
	var out []float64
	for _, xs := range p {
		out = append(out, xs...)
	}
	return out
}

// memSnap is a cheap snapshot of the allocator and collector counters
// (runtime/metrics, no stop-the-world). liveBytes is the heap the last
// collection found reachable.
type memSnap struct {
	allocBytes, allocObjects, gcCycles, liveBytes uint64
}

var memSampleNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

// memReader reuses one sample slice so that reading allocates nothing.
type memReader struct{ samples []metrics.Sample }

func newMemReader() *memReader {
	r := &memReader{samples: make([]metrics.Sample, len(memSampleNames))}
	for i, n := range memSampleNames {
		r.samples[i].Name = n
	}
	return r
}

func (r *memReader) read() memSnap {
	metrics.Read(r.samples)
	return memSnap{
		allocBytes:   r.samples[0].Value.Uint64(),
		allocObjects: r.samples[1].Value.Uint64(),
		gcCycles:     r.samples[2].Value.Uint64(),
		liveBytes:    r.samples[3].Value.Uint64(),
	}
}

// memWindow accumulates allocation and GC counters over a timed phase
// and records the live heap at every sample. The live heap, unlike the
// heap size at an arbitrary instant, does not depend on how far the
// collector lags behind the allocator.
type memWindow struct {
	r        *memReader
	start    memSnap
	last     memSnap
	excluded uint64
	liveMB   []float64
}

// startWindow collects garbage first so every timed phase starts from
// the same heap state, then snapshots the counters.
func startWindow(r *memReader) *memWindow {
	runtime.GC()
	s := r.read()
	return &memWindow{r: r, start: s, last: s}
}

// sample records the current counters.
func (w *memWindow) sample() {
	w.last = w.r.read()
	w.liveMB = append(w.liveMB, float64(w.last.liveBytes)/1e6)
}

// exclude runs f, which is not part of the measured work, and leaves
// its allocations out of the window.
func (w *memWindow) exclude(f func()) {
	before := w.r.read()
	f()
	w.sample()
	w.excluded += w.last.allocBytes - before.allocBytes
}

func (w *memWindow) allocMB() float64 {
	return float64(w.last.allocBytes-w.start.allocBytes-w.excluded) / 1e6
}

func (w *memWindow) gcCycles() float64 { return float64(w.last.gcCycles - w.start.gcCycles) }

// liveP90MB is the 90th percentile of the sampled live heap: a high-water
// mark that, unlike the maximum, does not hinge on which collection
// happened to end at the worst moment.
func (w *memWindow) liveP90MB() float64 { return quantile(w.liveMB, 0.9) }
