package dist

import (
	"sync/atomic"

	"parallelagg/internal/kernel"
	"parallelagg/internal/tuple"
)

// A fail-fast node's scan, a tolerant node's primary scan and its recovery
// jobs all run internal/kernel's loop, over the two exchanges below. Each
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

// failFast is a fail-fast node's exchange: its peers, whose writes encode
// a buffer so the scan refills it, and the self slot, which keeps it for
// the merge loop. The first failed write ends the scan with a *NodeError;
// a reservation reaches only the node's own merge loop.
type failFast struct {
	id, batch int
	peers     []*peer
	pool      rawPool
	res       *NodeResult
}

func (x *failFast) Raw(d int, b []tuple.Tuple) ([]tuple.Tuple, error) {
	if len(b) > 0 {
		if err := x.peers[d].writeRaw(streamID{origin: x.id}, b); err != nil {
			return nil, nodeErr(x.id, d, PhaseWrite, err)
		}
		x.res.RawSent += int64(len(b))
	}
	return nextRaw(b, d == x.id, x.pool, x.batch), nil
}

func (x *failFast) Partials(d int, b []tuple.Partial) ([]tuple.Partial, error) {
	if len(b) > 0 {
		if err := x.peers[d].writePartials(streamID{origin: x.id}, b); err != nil {
			return nil, nodeErr(x.id, d, PhaseWrite, err)
		}
		x.res.PartialsSent += int64(len(b))
	}
	return nextPartials(b, d == x.id, x.batch), nil
}

func (x *failFast) Reserve(d, groups int) error {
	if d != x.id {
		return nil
	}
	return x.peers[d].self(incoming{reserve: groups})
}

func (x *failFast) EndPhase() error { return broadcast(x.peers, x.id, frameEOP) }

// tolerantEx is a tolerant node's exchange for stream s, which tags every
// frame; the node's own share goes through the self slot to its control
// loop. A failed write drops that destination's share (shipFail; the
// receiver-side slot algebra makes the drop correct), so no ship ends the
// scan; a reservation is dropped too, as stages reserve at commit.
type tolerantEx struct {
	nd *tnode
	s  streamID
}

func (x *tolerantEx) Raw(d int, b []tuple.Tuple) ([]tuple.Tuple, error) {
	if len(b) > 0 {
		x.nd.shipped(d, x.nd.peers[d].writeRaw(x.s, b), &x.nd.rawSent, len(b))
	}
	return nextRaw(b, d == x.nd.id, x.nd.pool, x.nd.cfg.Batch), nil
}

func (x *tolerantEx) Partials(d int, b []tuple.Partial) ([]tuple.Partial, error) {
	if len(b) > 0 {
		x.nd.shipped(d, x.nd.peers[d].writePartials(x.s, b), &x.nd.partialsSent, len(b))
	}
	return nextPartials(b, d == x.nd.id, x.nd.cfg.Batch), nil
}

func (x *tolerantEx) Reserve(int, int) error { return nil }

func (x *tolerantEx) EndPhase() error {
	x.nd.broadcast(x.nd.peers, frameEOP, x.s)
	return nil
}

// nextRaw is the buffer a scan fills next for a destination after
// shipping b there, in either mode: b emptied when a socket write encoded
// it, nil when the self slot kept it. A fresh buffer (b empty) for the
// self slot is a slice the merge side put back in the raw pool, when one
// has room.
func nextRaw(b []tuple.Tuple, self bool, pool rawPool, batch int) []tuple.Tuple {
	switch {
	case len(b) > 0 && self:
		return nil
	case len(b) > 0:
		return b[:0]
	case self:
		if b = pool.get(); cap(b) >= batch {
			return b
		}
	}
	return make([]tuple.Tuple, 0, batch)
}

// nextPartials is nextRaw for partials, which have no pool.
func nextPartials(b []tuple.Partial, self bool, batch int) []tuple.Partial {
	switch {
	case len(b) > 0 && self:
		return nil
	case len(b) > 0:
		return b[:0]
	}
	return make([]tuple.Partial, 0, batch)
}

// shipped accounts for one write of n records to peer d: counted in sent,
// or, failed, handed to shipFail.
func (nd *tnode) shipped(d int, err error, sent *int64, n int) {
	if err != nil {
		nd.shipFail(d, err)
	} else {
		*sent += int64(n)
	}
}
