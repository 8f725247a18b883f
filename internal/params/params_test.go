package params

import (
	"testing"

	"parallelagg/internal/des"
)

func TestDefaultMatchesTable1(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N != 32 {
		t.Errorf("N = %d, want 32", p.N)
	}
	if p.Tuples != 8_000_000 {
		t.Errorf("Tuples = %d, want 8M", p.Tuples)
	}
	if p.TupleBytes != 100 {
		t.Errorf("TupleBytes = %d, want 100", p.TupleBytes)
	}
	// 800 MB relation: 8M tuples × 100 B.
	if got := p.Tuples * int64(p.TupleBytes); got != 800_000_000 {
		t.Errorf("relation size = %d B, want 800 MB", got)
	}
	if p.HashEntries != 10_000 {
		t.Errorf("M = %d, want 10000", p.HashEntries)
	}
	if p.SeqIO != des.Duration(1.15*float64(des.Millisecond)) {
		t.Errorf("SeqIO = %v", p.SeqIO)
	}
	if p.RandIO != 15*des.Millisecond {
		t.Errorf("RandIO = %v", p.RandIO)
	}
	if p.Network != LatencyNet {
		t.Errorf("Network = %v, want latency", p.Network)
	}
}

func TestImplementationMatchesSection5(t *testing.T) {
	p := Implementation()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N != 8 {
		t.Errorf("N = %d, want 8", p.N)
	}
	if p.Tuples != 2_000_000 {
		t.Errorf("Tuples = %d, want 2M", p.Tuples)
	}
	if p.MsgPageBytes != 2048 {
		t.Errorf("MsgPageBytes = %d, want 2048", p.MsgPageBytes)
	}
	if p.Network != SharedBusNet {
		t.Errorf("Network = %v, want shared-bus", p.Network)
	}
	// 25 MB of relation per node, as stated in Section 5.
	perNode := p.TuplesPerNode(0) * int64(p.TupleBytes)
	if perNode != 25_000_000 {
		t.Errorf("per-node bytes = %d, want 25 MB", perNode)
	}
}

func TestCPUTime(t *testing.T) {
	p := Default() // 40 MIPS
	// t_r = 300 instructions → 7.5 µs.
	if got, want := p.CPUTime(300), des.Duration(7.5*float64(des.Microsecond)); got != want {
		t.Errorf("CPUTime(300) = %v, want %v", got, want)
	}
	if p.CPUTime(0) != 0 {
		t.Errorf("CPUTime(0) != 0")
	}
}

func TestTuplesPerNodeCoversRelation(t *testing.T) {
	p := Default()
	p.N = 7
	p.Tuples = 100 // not divisible
	var sum int64
	for i := 0; i < p.N; i++ {
		sum += p.TuplesPerNode(i)
	}
	if sum != p.Tuples {
		t.Errorf("per-node counts sum to %d, want %d", sum, p.Tuples)
	}
	// No node differs from another by more than one tuple.
	for i := 1; i < p.N; i++ {
		d := p.TuplesPerNode(0) - p.TuplesPerNode(i)
		if d < 0 || d > 1 {
			t.Errorf("node 0 has %d, node %d has %d", p.TuplesPerNode(0), i, p.TuplesPerNode(i))
		}
	}
}

func TestGeometryHelpers(t *testing.T) {
	p := Default()
	if got := p.ProjTupleBytes(); got != 16 {
		t.Errorf("ProjTupleBytes = %d, want 16 (p=0.16 of 100)", got)
	}
	if got := p.TuplesPerDiskPage(); got != 40 {
		t.Errorf("TuplesPerDiskPage = %d, want 40", got)
	}
	if got := p.DiskPages(0); got != 0 {
		t.Errorf("DiskPages(0) = %d, want 0", got)
	}
	if got := p.DiskPages(1); got != 1 {
		t.Errorf("DiskPages(1) = %d, want 1", got)
	}
	if got := p.DiskPages(41); got != 2 {
		t.Errorf("DiskPages(41) = %d, want 2", got)
	}
	imp := Implementation()
	if got := imp.ProjTuplesPerMsgPage(); got != 128 {
		t.Errorf("ProjTuplesPerMsgPage = %d, want 128 (2048/16)", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.N = 0 },
		func(p *Params) { p.MIPS = 0 },
		func(p *Params) { p.Tuples = -1 },
		func(p *Params) { p.TupleBytes = 0 },
		func(p *Params) { p.PageBytes = 10 },
		func(p *Params) { p.MsgPageBytes = 0 },
		func(p *Params) { p.Projectivity = 0 },
		func(p *Params) { p.Projectivity = 1.5 },
		func(p *Params) { p.HashEntries = 0 },
	}
	for i, mutate := range cases {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a bad config", i)
		}
	}
}

func TestNetworkKindString(t *testing.T) {
	if LatencyNet.String() != "latency" || SharedBusNet.String() != "shared-bus" {
		t.Error("network kind names wrong")
	}
	if NetworkKind(9).String() != "NetworkKind(9)" {
		t.Errorf("unknown kind = %q", NetworkKind(9).String())
	}
}

func TestMsgPagesClampsTinyRecords(t *testing.T) {
	p := Default()
	p.MsgPageBytes = 8 // smaller than one projected tuple
	if got := p.ProjTuplesPerMsgPage(); got != 1 {
		t.Errorf("ProjTuplesPerMsgPage = %d, want clamp to 1", got)
	}
}

func TestProjTupleBytesClamp(t *testing.T) {
	p := Default()
	p.TupleBytes = 100
	p.Projectivity = 0.001 // would round to 0
	if got := p.ProjTupleBytes(); got != 1 {
		t.Errorf("ProjTupleBytes = %d, want clamp to 1", got)
	}
}
