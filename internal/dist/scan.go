package dist

import (
	"sync/atomic"

	"parallelagg/internal/kernel"
	"parallelagg/internal/tuple"
)

// A node's primary scan and a tolerant node's recovery jobs all run
// internal/kernel's loop, over the exchange below. Each frame is a
// function of the partition, so a same-seed run ships byte-identical
// frames.

// newScan is a kernel run of alg over cfg's knobs, for a partition of rows
// tuples in an n-node cluster, shipping through ex. A node sees only its
// own partition, so a switch projects over n × rows: equal partitions.
func newScan(cfg Config, alg Algorithm, n, rows int, fallback *atomic.Bool, ex kernel.Exchange) kernel.Scan {
	return kernel.Scan{Alg: kernel.Algorithm(alg), Bound: cfg.TableEntries, Batch: cfg.Batch,
		Dests: n, Rows: n * rows, Fallback: fallback, Ex: ex}
}

// exchange is node nd's kernel.Exchange for stream s, in either mode: it
// ships through nd.ship. A peer's write encodes a buffer, which the scan
// refills; the node's own share keeps it for the control loop, and the scan
// takes a fresh one (raw: from the pool the control loop refills). A
// reservation reaches only the node's own table: no frame carries one.
type exchange struct {
	nd *tnode
	s  streamID
}

func (x *exchange) Raw(d int, b []tuple.Tuple) ([]tuple.Tuple, error) {
	nd := x.nd
	switch {
	case len(b) > 0:
		if err := nd.ship(d, frame{kind: frameRaw, origin: x.s.origin, epoch: x.s.epoch, raw: b}); err != nil || d == nd.id {
			return nil, err
		}
		return b[:0], nil
	case d == nd.id:
		if b = nd.pool.get(); cap(b) >= nd.cfg.Batch {
			return b, nil
		}
	}
	return make([]tuple.Tuple, 0, nd.cfg.Batch), nil
}

func (x *exchange) Partials(d int, b []tuple.Partial) ([]tuple.Partial, error) {
	nd := x.nd
	if len(b) > 0 {
		if err := nd.ship(d, frame{kind: framePartial, origin: x.s.origin, epoch: x.s.epoch, partials: b}); err != nil || d == nd.id {
			return nil, err
		}
		return b[:0], nil
	}
	return make([]tuple.Partial, 0, nd.cfg.Batch), nil
}

func (x *exchange) Reserve(d, groups int) error {
	if d != x.nd.id {
		return nil
	}
	return x.nd.toSelf(tevent{f: frame{origin: x.s.origin, epoch: x.s.epoch}, reserve: groups})
}

func (x *exchange) EndPhase() error { return x.nd.broadcast(frameEOP, x.s, -1) }
