package cluster

import (
	"fmt"
	"strings"
	"testing"

	"parallelagg/internal/des"
	"parallelagg/internal/obs"
	"parallelagg/internal/workload"
)

// TestPublishObs checks the end-of-run export against a run whose every
// charge is known: one page read and 400 instructions on node 0, nothing on
// the coordinator or the interconnect.
func TestPublishObs(t *testing.T) {
	prm := testParams(1)
	c, err := New(prm, workload.Uniform(1, 100, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	c.Sim.Spawn("w", func(p *des.Proc) {
		n.Rel.ReadPageSeq(p, 0)
		n.Work(p, 400) // 10 µs at 40 MIPS
		n.Metrics.Scanned = 7
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	c.PublishObs() // no registry attached: a no-op
	c.Obs = obs.New()
	c.PublishObs()

	now := int64(c.Sim.Now())
	cpu, disk := int64(10*des.Microsecond), int64(prm.SeqIO)
	if now != cpu+disk {
		t.Fatalf("virtual clock %d ns, want %d", now, cpu+disk)
	}
	snap := string(c.Obs.Snapshot())
	for _, want := range []string{
		fmt.Sprintf("sim_virtual_time_ns %d", now),
		fmt.Sprintf(`sim_node_busy_ns{node="0",resource="cpu"} %d`, cpu),
		fmt.Sprintf(`sim_node_busy_ns{node="0",resource="disk"} %d`, disk),
		fmt.Sprintf(`sim_node_utilization_permille{node="0",resource="cpu"} %d`, 1000*cpu/now),
		fmt.Sprintf(`sim_node_utilization_permille{node="0",resource="disk"} %d`, 1000*disk/now),
		`sim_node_scanned_total{node="0"} 7`,
		`sim_node_disk_seq_reads_total{node="0"} 1`,
		`sim_node_busy_ns{node="1",resource="cpu"} 0`, // the coordinator
		"sim_net_messages_total 0",
		"sim_net_bus_utilization_permille 0",
	} {
		if !strings.Contains(snap, want+"\n") {
			t.Errorf("snapshot lacks %q:\n%s", want, snap)
		}
	}
}
