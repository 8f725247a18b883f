// Package params holds the system parameters of the paper's analytical
// model (Table 1 of Shatdal & Naughton, SIGMOD 1995) plus the configuration
// of the workstation-cluster implementation of Section 5. Every cost in the
// simulator and in the analytical model is derived from a Params value, so
// an experiment is fully described by (Params, workload, algorithm).
package params

import (
	"fmt"

	"parallelagg/internal/des"
)

// NetworkKind selects the interconnect model.
type NetworkKind int

const (
	// LatencyNet models a high-speed, high-bandwidth interconnect (the
	// paper's IBM SP-2 case): sending a page costs only the latency MsgLat;
	// bandwidth is unlimited.
	LatencyNet NetworkKind = iota
	// SharedBusNet models a limited-bandwidth network (the paper's
	// 10 Mbit/s Ethernet case): the wire is a single shared resource and
	// transmitting a page occupies it for MsgLat regardless of how many
	// nodes want to send.
	SharedBusNet
)

// String returns "latency" or "shared-bus".
func (k NetworkKind) String() string {
	switch k {
	case LatencyNet:
		return "latency"
	case SharedBusNet:
		return "shared-bus"
	default:
		return fmt.Sprintf("NetworkKind(%d)", int(k))
	}
}

// Params is the full parameter set of Table 1. Instruction-count fields
// (TRead … MsgProto) are in CPU instructions; convert them to virtual time
// with CPUTime.
type Params struct {
	N    int     // number of processors
	MIPS float64 // processor speed, million instructions per second

	Tuples     int64 // |R|: number of tuples in the relation
	TupleBytes int   // width of a stored tuple (100 B in the paper)

	PageBytes    int // disk page size (4 KB)
	MsgPageBytes int // network message block size (2 KB in the implementation)

	SeqIO  des.Duration // time to read or write a page sequentially
	RandIO des.Duration // time to read a random page

	Projectivity float64 // p: fraction of the tuple relevant to aggregation

	TRead    float64 // t_r: instructions to read a tuple
	TWrite   float64 // t_w: instructions to write a tuple
	THash    float64 // t_h: instructions to compute a hash value
	TAgg     float64 // t_a: instructions to process a tuple (aggregate step)
	TDest    float64 // t_d: instructions to compute a tuple's destination
	MsgProto float64 // m_p: message protocol instructions per page

	MsgLat des.Duration // m_l: time to send a page on the wire

	HashEntries int // M: maximum hash table size, in group entries

	Network NetworkKind
}

// Default returns the paper's analytical-model configuration: 32 nodes,
// 40 MIPS, an 800 MB / 8M-tuple relation, one disk per node, and a
// high-speed latency-only network.
func Default() Params {
	return Params{
		N:            32,
		MIPS:         40,
		Tuples:       8_000_000,
		TupleBytes:   100,
		PageBytes:    4096,
		MsgPageBytes: 4096,
		SeqIO:        des.Duration(1.15 * float64(des.Millisecond)),
		RandIO:       15 * des.Millisecond,
		Projectivity: 0.16,
		TRead:        300,
		TWrite:       100,
		THash:        400,
		TAgg:         300,
		TDest:        10,
		MsgProto:     1000,
		MsgLat:       2 * des.Millisecond,
		HashEntries:  10_000,
		Network:      LatencyNet,
	}
}

// Implementation returns the Section 5 workstation-cluster configuration:
// 8 nodes, a 2M-tuple relation of 100-byte tuples partitioned round-robin,
// messages blocked into 2 KB pages, and a 10 Mbit/s Ethernet modelled as a
// shared bus. MsgLat is the wire time of one 2 KB block at 10 Mbit/s.
func Implementation() Params {
	p := Default()
	p.N = 8
	p.Tuples = 2_000_000
	p.MsgPageBytes = 2048
	// 2 KB at 10 Mbit/s = 2048*8 / 10e6 s ≈ 1.64 ms per block.
	p.MsgLat = des.Duration(float64(2048*8) / 10e6 * float64(des.Second))
	p.Network = SharedBusNet
	return p
}

// Validate reports an error if the parameter set is unusable.
func (p Params) Validate() error {
	switch {
	case p.N < 1:
		return fmt.Errorf("params: N = %d, need at least 1 node", p.N)
	case p.MIPS <= 0:
		return fmt.Errorf("params: MIPS = %v, must be positive", p.MIPS)
	case p.Tuples < 0:
		return fmt.Errorf("params: Tuples = %d, must be non-negative", p.Tuples)
	case p.TupleBytes <= 0:
		return fmt.Errorf("params: TupleBytes = %d, must be positive", p.TupleBytes)
	case p.PageBytes < p.TupleBytes:
		return fmt.Errorf("params: PageBytes = %d smaller than a tuple (%d)", p.PageBytes, p.TupleBytes)
	case p.MsgPageBytes <= 0:
		return fmt.Errorf("params: MsgPageBytes = %d, must be positive", p.MsgPageBytes)
	case p.Projectivity <= 0 || p.Projectivity > 1:
		return fmt.Errorf("params: Projectivity = %v, must be in (0,1]", p.Projectivity)
	case p.HashEntries < 1:
		return fmt.Errorf("params: HashEntries = %d, need at least 1", p.HashEntries)
	}
	return nil
}

// CPUTime converts an instruction count into virtual time at this
// configuration's MIPS rating.
func (p Params) CPUTime(instructions float64) des.Duration {
	return des.Duration(instructions / p.MIPS * float64(des.Microsecond))
}

// TuplesPerNode returns |R_i| = |R|/N, the number of tuples stored on node
// i under uniform declustering. Remainder tuples go to the low-numbered
// nodes; this helper returns the count for node id.
func (p Params) TuplesPerNode(id int) int64 {
	base := p.Tuples / int64(p.N)
	if int64(id) < p.Tuples%int64(p.N) {
		base++
	}
	return base
}

// ProjTupleBytes returns the width of a projected tuple: the part of the
// tuple relevant to the aggregate (group-by key + aggregated value).
func (p Params) ProjTupleBytes() int {
	b := int(float64(p.TupleBytes) * p.Projectivity)
	if b < 1 {
		b = 1
	}
	return b
}

// TuplesPerDiskPage returns how many stored tuples fit on one disk page.
func (p Params) TuplesPerDiskPage() int { return p.PageBytes / p.TupleBytes }

// ProjTuplesPerMsgPage returns how many projected tuples fit in one message
// block.
func (p Params) ProjTuplesPerMsgPage() int {
	n := p.MsgPageBytes / p.ProjTupleBytes()
	if n < 1 {
		n = 1
	}
	return n
}

// DiskPages returns the number of pages needed to hold n tuples of the
// stored width.
func (p Params) DiskPages(n int64) int64 {
	per := int64(p.TuplesPerDiskPage())
	if per < 1 {
		per = 1
	}
	return (n + per - 1) / per
}
