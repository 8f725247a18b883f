package dist

import (
	"sync/atomic"

	"parallelagg/internal/kernel"
	"parallelagg/internal/tuple"
)

// A fail-fast node's scan, a tolerant node's primary scan and its recovery
// jobs all run internal/kernel's loop, over the exchange below. Each
// frame is a function of the partition, so a same-seed run ships
// byte-identical frames.

// newScan is a kernel run of alg over cfg's knobs, for a partition of rows
// tuples in an n-node cluster, shipping through ex. A node sees only its
// own partition, so a switch projects over n × rows: equal partitions.
func newScan(cfg Config, alg Algorithm, n, rows int, fallback *atomic.Bool, ex kernel.Exchange) kernel.Scan {
	return kernel.Scan{Alg: kernel.Algorithm(alg), Bound: cfg.TableEntries, Batch: cfg.Batch,
		InitSeg: cfg.InitSeg, SwitchRatio: cfg.SwitchRatio, Dests: n, Rows: n * rows,
		Fallback: fallback, Ex: ex}
}

// exchange is a node's kernel.Exchange for stream s, in either mode. A
// peer's write encodes a buffer, which the scan refills; the self slot keeps
// it for the merge side, and the scan takes a fresh one (raw: from the pool
// the merge side refills). On a failed write fail-fast's failed returns the
// error that ends the scan, tolerant's drops the share (shipFail) and returns
// nil. A reservation reaches only the node's own Merge: no frame carries one.
type exchange struct {
	id, batch int
	s         streamID
	to        func(d int) writer
	self      selfSlot
	pool      rawPool
	failed    func(d int, err error) error
	raw, part *int64 // records shipped
	endPhase  func() error
}

// failFast is a fail-fast node's exchange over peers, its own entry the
// self slot: the first failed write ends the scan with a *NodeError.
func failFast(id, batch int, peers []*peer, pool rawPool, res *NodeResult) *exchange {
	return &exchange{id: id, batch: batch, s: streamID{origin: id}, self: peers[id].self, pool: pool,
		to:     func(d int) writer { return peers[d] },
		failed: func(d int, err error) error { return nodeErr(id, d, PhaseWrite, err) },
		raw:    &res.RawSent, part: &res.PartialsSent,
		endPhase: func() error { return broadcast(peers, id, frameEOP) }}
}

// writer is a peer's data-frame side: a fail-fast *peer or a tolerant *tpeer.
type writer interface {
	writeRaw(s streamID, ts []tuple.Tuple) error
	writePartials(s streamID, ps []tuple.Partial) error
}

func (x *exchange) Raw(d int, b []tuple.Tuple) ([]tuple.Tuple, error) {
	switch {
	case len(b) > 0:
		if err := x.sent(d, x.to(d).writeRaw(x.s, b), x.raw, len(b)); err != nil || d == x.id {
			return nil, err
		}
		return b[:0], nil
	case d == x.id:
		if b = x.pool.get(); cap(b) >= x.batch {
			return b, nil
		}
	}
	return make([]tuple.Tuple, 0, x.batch), nil
}

func (x *exchange) Partials(d int, b []tuple.Partial) ([]tuple.Partial, error) {
	if len(b) > 0 {
		if err := x.sent(d, x.to(d).writePartials(x.s, b), x.part, len(b)); err != nil || d == x.id {
			return nil, err
		}
		return b[:0], nil
	}
	return make([]tuple.Partial, 0, x.batch), nil
}

func (x *exchange) Reserve(d, groups int) error {
	if d != x.id {
		return nil
	}
	return x.self(incoming{f: frame{origin: x.s.origin, epoch: x.s.epoch}, reserve: groups})
}

func (x *exchange) EndPhase() error { return x.endPhase() }

// sent counts a write of n records to peer d in shipped, or hands its error to failed.
func (x *exchange) sent(d int, err error, shipped *int64, n int) error {
	if err != nil {
		return x.failed(d, err)
	}
	*shipped += int64(n)
	return nil
}
