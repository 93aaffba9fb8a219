package main

import (
	"math"
	"testing"
)

func TestPyQuartilesMatchesPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs  []float64
		q   [3]float64
		med float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}, 5.5},
		{[]float64{3.5, 1.25, 9, 4, 4.5}, [3]float64{2.375, 4, 6.75}, 4},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}, 15},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}, 4},
	}
	for _, c := range cases {
		if got := pyQuartiles(c.xs); got != c.q {
			t.Errorf("pyQuartiles(%v) = %v, want %v", c.xs, got, c.q)
		}
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
}

func TestSweepSumsPerItemMedians(t *testing.T) {
	p := make(perItem, 2)
	for _, v := range []float64{5, 1, 3} {
		p.add(0, v)
	}
	for _, v := range []float64{10, 30} {
		p.add(1, v)
	}
	if got := p.sweep(); got != 3+20 {
		t.Errorf("sweep = %v, want 23", got)
	}
}

func TestLayersSubtractChildren(t *testing.T) {
	tr := &tracer{}
	root := tr.add(span{Name: "op", Parent: -1, Start: 0, End: 100, AllocBytes: 50})
	tr.add(span{Name: "a", Parent: root, Start: 10, End: 40, AllocBytes: 20, Events: 7})
	tr.add(span{Name: "b", Parent: root, Start: 40, End: 90, AllocBytes: 25})
	ls := tr.layers()
	if got := ls["op"].Self; got != 20 {
		t.Errorf("op self = %v, want 20ns", got)
	}
	if got := ls["op"].AllocBytes; got != 5 {
		t.Errorf("op self alloc = %v, want 5", got)
	}
	if got := ls["a"].Self; got != 30 || ls["a"].Events != 7 {
		t.Errorf("a = %+v, want self 30ns and 7 events", ls["a"])
	}
	if l := layer(ls, "missing"); l.Count != 0 || l.meanSelfMS() != 0 {
		t.Errorf("missing layer = %+v, want zero", l)
	}
}
