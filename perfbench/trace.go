package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one op share Op; Parent indexes
// the span that made the call (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// AllocBytes and AllocObjects are the heap allocations made between
	// the span's start and end (children included); zero for spans
	// recorded from concurrent goroutines, where the process-wide
	// counters cannot be split per request.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// Events is the simulated event count a run reported.
	Events int64 `json:"events,omitempty"`
	// WaitNS and TotalNS are the service's own queue-wait and residence
	// times for a request, as its response reports them.
	WaitNS  int64 `json:"wait_ns,omitempty"`
	TotalNS int64 `json:"total_ns,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0  time.Time
	mem *memReader

	mu    sync.Mutex // guards spans for add
	spans []span
}

func newTracer(mem *memReader) *tracer { return &tracer{t0: time.Now(), mem: mem} }

// begin opens a span on the calling goroutine and returns its index.
// Only one goroutine may use begin/end at a time.
func (t *tracer) begin(name string, op int64, parent int) int {
	m := t.mem.read()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		AllocBytes: m.allocBytes, AllocObjects: m.allocObjects})
	i := len(t.spans) - 1
	t.spans[i].Start = int64(time.Since(t.t0))
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	e := int64(time.Since(t.t0))
	m := t.mem.read()
	s := &t.spans[i]
	s.End = e
	s.AllocBytes = m.allocBytes - s.AllocBytes
	s.AllocObjects = m.allocObjects - s.AllocObjects
}

// since converts a wall-clock instant to the tracer's time base.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add records a finished span from any goroutine and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// layerStat is one span name's totals: self time (the span minus the
// part its children cover) and self allocations.
type layerStat struct {
	Name         string
	Count        int
	Self         time.Duration
	AllocBytes   uint64
	AllocObjects uint64
	Events       int64
}

func (l *layerStat) meanSelfMS() float64 { return ratio(ms(l.Self), float64(l.Count)) }

// layers aggregates the spans by name.
func (t *tracer) layers() map[string]*layerStat {
	childDur := make([]time.Duration, len(t.spans))
	childB := make([]uint64, len(t.spans))
	childN := make([]uint64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			childDur[p] += t.spans[i].dur()
			childB[p] += t.spans[i].AllocBytes
			childN[p] += t.spans[i].AllocObjects
		}
	}
	out := make(map[string]*layerStat)
	for i := range t.spans {
		s := &t.spans[i]
		l := out[s.Name]
		if l == nil {
			l = &layerStat{Name: s.Name}
			out[s.Name] = l
		}
		l.Count++
		l.Self += s.dur() - childDur[i]
		l.AllocBytes += s.AllocBytes - childB[i]
		l.AllocObjects += s.AllocObjects - childN[i]
		l.Events += s.Events
	}
	return out
}

// layer returns the named totals, zero when the workload never called
// that layer.
func layer(ls map[string]*layerStat, name string) *layerStat {
	if l := ls[name]; l != nil {
		return l
	}
	return &layerStat{Name: name}
}

// printLayers writes the per-layer self time, call counts and
// allocations table.
func printLayers(w io.Writer, ls map[string]*layerStat) {
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-20s %8s %12s %12s %14s %14s\n", "span", "calls", "self_ms", "self_ms/call", "alloc_kb/call", "mallocs/call")
	for _, n := range names {
		l := ls[n]
		c := float64(l.Count)
		fmt.Fprintf(w, "%-20s %8d %12.3f %12.4f %14.2f %14.1f\n", n, l.Count, ms(l.Self), l.meanSelfMS(),
			ratio(float64(l.AllocBytes)/1e3, c), ratio(float64(l.AllocObjects), c))
	}
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
