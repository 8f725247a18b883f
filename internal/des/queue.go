package des

import "container/heap"

// Queue is an unbounded FIFO message queue in virtual time. Items may be
// enqueued with a future ready time (modelling transmission latency); Get
// blocks the calling process until an item is ready. Items with equal ready
// times are delivered in insertion order.
//
// Queue methods must only be called from process goroutines of the owning
// simulation, or before Run starts (for pre-loading).
type Queue struct {
	sim     *Simulation
	name    string
	items   itemHeap
	seq     uint64
	waiters []*Proc
	closed  bool

	// MaxLen is the high-water mark of the queue depth, for
	// backpressure reporting.
	MaxLen int
}

type item struct {
	ready Time
	seq   uint64
	v     interface{}
}

type itemHeap []item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// NewQueue returns an empty queue. The name appears in deadlock reports.
func (s *Simulation) NewQueue(name string) *Queue {
	return &Queue{sim: s, name: name}
}

// Len reports the number of enqueued items, ready or not.
func (q *Queue) Len() int { return q.items.Len() }

// Put enqueues v, ready immediately.
func (q *Queue) Put(v interface{}) { q.PutAt(q.sim.now, v) }

// PutAt enqueues v, becoming available to getters at time ready (which must
// not be in the past). It panics if the queue has been closed.
func (q *Queue) PutAt(ready Time, v interface{}) {
	if q.closed {
		panic("des: Put on closed queue " + q.name)
	}
	if ready < q.sim.now {
		panic("des: PutAt in the past on queue " + q.name)
	}
	q.seq++
	heap.Push(&q.items, item{ready: ready, seq: q.seq, v: v})
	if q.items.Len() > q.MaxLen {
		q.MaxLen = q.items.Len()
	}
	q.wakeOne(ready)
}

// Close marks the queue closed: once drained, Get returns ok=false instead
// of blocking. Closing an already-closed queue panics.
func (q *Queue) Close() {
	if q.closed {
		panic("des: Close on closed queue " + q.name)
	}
	q.closed = true
	// Wake every waiter so it can observe the close.
	for len(q.waiters) > 0 {
		q.wakeOne(q.sim.now)
	}
}

func (q *Queue) wakeOne(at Time) {
	if len(q.waiters) == 0 {
		return
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	if at < q.sim.now {
		at = q.sim.now
	}
	q.sim.schedule(at, w)
}

// Get removes and returns the next ready item, blocking p until one is
// available. If the queue is closed and drained it returns (nil, false).
// Waiting for a not-yet-ready item advances p's clock to the ready time.
func (q *Queue) Get(p *Proc) (interface{}, bool) {
	for {
		if q.items.Len() > 0 {
			if head := q.items[0]; head.ready <= q.sim.now {
				it := heap.Pop(&q.items).(item)
				return it.v, true
			}
			// Head exists but is in transit: sleep until it is ready.
			q.sim.schedule(q.items[0].ready, p)
			p.park("queue " + q.name + " (in transit)")
			continue
		}
		if q.closed {
			return nil, false
		}
		q.waiters = append(q.waiters, p)
		p.park("queue " + q.name)
	}
}

// TryGet removes and returns the next item if one is ready now. It never
// blocks and never advances the clock.
func (q *Queue) TryGet() (interface{}, bool) {
	if q.items.Len() > 0 && q.items[0].ready <= q.sim.now {
		it := heap.Pop(&q.items).(item)
		return it.v, true
	}
	return nil, false
}
