// Package network simulates the interconnect of a shared-nothing cluster.
// Two models from the paper are provided, selected by params.NetworkKind:
//
//   - LatencyNet: a high-speed, high-bandwidth interconnect (IBM SP-2
//     class). Sending a message block costs the sender only the protocol
//     CPU time; the block arrives MsgLat later. Bandwidth is unlimited, so
//     transfers never queue behind one another.
//
//   - SharedBusNet: a limited-bandwidth network (10 Mbit/s Ethernet). The
//     wire is a single shared resource: each block occupies it for MsgLat,
//     so total transmission capacity is fixed regardless of node count.
//
// In both models the sender and the receiver each pay the per-block message
// protocol CPU cost m_p, as in the paper's cost equations.
package network

import (
	"fmt"

	"parallelagg/internal/des"
	"parallelagg/internal/params"
	"parallelagg/internal/tuple"
)

// Message is one network transfer between two nodes. A message may carry
// raw projected tuples, partial aggregates, or neither (a pure control
// message). The EOS and EndOfPhase flags are piggybacked control signals:
// EOS tells the receiver this sender will send no more data in the tagged
// stream; EndOfPhase carries the Adaptive Repartitioning "end-of-phase"
// signal.
type Message struct {
	Src, Dst   int
	Tag        int // algorithm-defined stream tag, e.g. a phase number
	Raw        []tuple.Tuple
	Partials   []tuple.Partial
	EOS        bool
	EndOfPhase bool
}

// Bytes returns the payload size of the message.
func (m *Message) Bytes() int {
	return len(m.Raw)*tuple.RawSize + len(m.Partials)*tuple.PartialSize
}

// Pages returns how many message blocks of blockBytes the message occupies
// (at least one: control messages still consume a block).
func (m *Message) Pages(blockBytes int) int64 {
	b := m.Bytes()
	if b == 0 {
		return 1
	}
	return int64((b + blockBytes - 1) / blockBytes)
}

// Metrics counts network activity.
type Metrics struct {
	Messages int64        // messages delivered
	Pages    int64        // message blocks transmitted
	Bytes    int64        // payload bytes transmitted
	BusBusy  des.Duration // time the shared bus spent transmitting (SharedBusNet only)
}

// Net is the cluster interconnect. Create it with New, register each
// sending process with AddSenders, and have every sender call Done when it
// will send no more; the shared-bus transmitter process exits when the last
// sender is done, letting the simulation terminate.
type Net struct {
	prm     params.Params
	inboxes []*des.Queue
	bus     *des.Queue // nil for LatencyNet
	senders int

	// Metrics accumulates totals across all nodes.
	Metrics Metrics
}

// New builds the interconnect for prm.N nodes plus one extra inbox (index
// prm.N) for a coordinator. For SharedBusNet it spawns the bus transmitter
// process.
func New(sim *des.Simulation, prm params.Params) *Net {
	n := &Net{prm: prm}
	for i := 0; i <= prm.N; i++ {
		n.inboxes = append(n.inboxes, sim.NewQueue(fmt.Sprintf("inbox%d", i)))
	}
	if prm.Network == params.SharedBusNet {
		n.bus = sim.NewQueue("bus")
		sim.Spawn("bus", func(p *des.Proc) {
			for {
				v, ok := n.bus.Get(p)
				if !ok {
					return
				}
				m := v.(*Message)
				wire := des.Duration(m.Pages(prm.MsgPageBytes)) * prm.MsgLat
				p.Delay(wire)
				n.Metrics.BusBusy += wire
				n.inboxes[m.Dst].Put(m)
			}
		})
	}
	return n
}

// AddSenders registers k processes that will call Done.
func (n *Net) AddSenders(k int) { n.senders += k }

// Done signals that one registered sender has finished sending. When the
// last sender finishes, the shared bus shuts down.
func (n *Net) Done() {
	if n.senders <= 0 {
		panic("network: Done without matching AddSenders")
	}
	n.senders--
	if n.senders == 0 && n.bus != nil {
		n.bus.Close()
	}
}

// Send transmits m from the calling process. cpu is the sender's CPU
// resource; the per-block protocol cost is charged against it. Send blocks
// the sender only for the protocol CPU time — wire time is modelled by
// delivery delay (LatencyNet) or by the bus process (SharedBusNet).
func (n *Net) Send(p *des.Proc, cpu *des.Resource, m *Message) {
	if m.Dst < 0 || m.Dst >= len(n.inboxes) {
		panic(fmt.Sprintf("network: send to node %d of %d", m.Dst, len(n.inboxes)))
	}
	pages := m.Pages(n.prm.MsgPageBytes)
	cpu.Use(p, des.Duration(pages)*n.prm.CPUTime(n.prm.MsgProto))
	n.Metrics.Messages++
	n.Metrics.Pages += pages
	n.Metrics.Bytes += int64(m.Bytes())
	if n.bus != nil {
		n.bus.Put(m)
		return
	}
	// Latency model: the send is synchronous — the sender is occupied for
	// the wire time of every page (the cost model's m_l term) — but the
	// wire itself is not shared, so concurrent senders do not queue.
	p.Delay(des.Duration(pages) * n.prm.MsgLat)
	n.inboxes[m.Dst].Put(m)
}

// Recv receives the next message for node id, blocking until one arrives,
// and charges the receiver's per-block protocol CPU cost. It returns false
// only if the inbox has been closed.
func (n *Net) Recv(p *des.Proc, cpu *des.Resource, id int) (*Message, bool) {
	v, ok := n.inboxes[id].Get(p)
	if !ok {
		return nil, false
	}
	m := v.(*Message)
	cpu.Use(p, des.Duration(m.Pages(n.prm.MsgPageBytes))*n.prm.CPUTime(n.prm.MsgProto))
	return m, true
}

// TryRecv is like Recv but never blocks; ok is false when no message is
// ready.
func (n *Net) TryRecv(p *des.Proc, cpu *des.Resource, id int) (*Message, bool) {
	v, ok := n.inboxes[id].TryGet()
	if !ok {
		return nil, false
	}
	m := v.(*Message)
	cpu.Use(p, des.Duration(m.Pages(n.prm.MsgPageBytes))*n.prm.CPUTime(n.prm.MsgProto))
	return m, true
}
