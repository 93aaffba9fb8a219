package dataflow

import "spatial/internal/pegasus"

// This file is the event engine's storage layer: a typed 4-ary min-heap
// ordered on (time, seq) whose elements are indices into a slab of event
// records recycled through a free list. Nothing here is boxed and nothing
// is garbage in steady state — pushing an event reuses a freed slab slot,
// popping one returns the record by value and immediately recycles the
// slot. The 4-ary shape halves the tree depth of a binary heap, which
// matters because sift comparisons (two loads from the slab) dominate the
// queue's cost.

type evKind uint8

const (
	evDeliver evKind = iota
	evCheck
)

// event is one scheduled simulator step. Producer bookkeeping rides along
// on deliveries so the consumer can release the producer's edge slot when
// the value is eventually consumed (see latchEntry): producer and
// consumer always share an activation, so the producer is identified by
// node ID and edge index alone.
type event struct {
	time int64
	seq  int64
	val  int64
	// prodFire is the trace firing Seq of the producing firing (0 when
	// tracing is disabled or the value was seeded outside a firing).
	prodFire int64
	act      *activation
	node     *pegasus.Node
	// dstPort is the flat port index of the consumer slot the value lands
	// in (evDeliver only); see graphInfo.portIndex.
	dstPort  int32
	prodNode int32
	prodEdge int32
	kind     evKind
	prodTok  bool
}

// eventQueue is the slab-backed heap. heap holds slab indices; free holds
// recycled slab slots. The total order (time, then seq) is the same one
// the previous container/heap implementation used, and seq is unique per
// event, so pop order — and therefore simulated behavior — is identical.
type eventQueue struct {
	slab []event
	free []int32
	heap []int32
}

func (q *eventQueue) len() int { return len(q.heap) }

func (q *eventQueue) less(a, b int32) bool {
	ea, eb := &q.slab[a], &q.slab[b]
	if ea.time != eb.time {
		return ea.time < eb.time
	}
	return ea.seq < eb.seq
}

func (q *eventQueue) push(e event) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	q.slab[idx] = e
	q.heap = append(q.heap, idx)
	q.up(len(q.heap) - 1)
}

// pop removes and returns the minimum event, recycling its slab slot.
func (q *eventQueue) pop() event {
	h := q.heap
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.heap = h[:last]
	if last > 0 {
		q.down(0)
	}
	e := q.slab[root]
	// Drop references so completed activations and their pooled state are
	// not kept alive by a recycled slot.
	q.slab[root].act = nil
	q.slab[root].node = nil
	q.free = append(q.free, root)
	return e
}

func (q *eventQueue) up(i int) {
	h := q.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !q.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) down(i int) {
	h := q.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q.less(h[j], h[best]) {
				best = j
			}
		}
		if !q.less(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
