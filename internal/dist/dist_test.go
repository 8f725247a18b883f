package dist

import (
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

func algorithms() []Algorithm {
	return []Algorithm{TwoPhase, Repartitioning, AdaptiveTwoPhase, AdaptiveRepartitioning}
}

func verify(t *testing.T, rel *workload.Relation, got map[tuple.Key]tuple.AggState) {
	t.Helper()
	want := rel.Reference()
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for k, ws := range want {
		if gs, ok := got[k]; !ok || gs != ws {
			t.Fatalf("group %d = %v, want %v", k, got[k], ws)
		}
	}
}

func TestDistributedUnboundedTables(t *testing.T) {
	rel := workload.Uniform(3, 9_000, 500, 5)
	got, switched, err := Run(rel.PerNode, AdaptiveTwoPhase, 0)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, got)
	if switched != 0 {
		t.Errorf("switched = %d with unbounded tables", switched)
	}
}

func TestDistributedAdaptiveSwitch(t *testing.T) {
	// Many groups and a tiny bound: every node must switch, over real TCP.
	rel := workload.Uniform(4, 20_000, 10_000, 6)
	got, switched, err := Run(rel.PerNode, AdaptiveTwoPhase, 64)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, got)
	if switched != 4 {
		t.Errorf("switched = %d nodes, want 4", switched)
	}
	// Few groups: nobody switches.
	rel = workload.Uniform(4, 20_000, 10, 7)
	_, switched, err = Run(rel.PerNode, AdaptiveTwoPhase, 64)
	if err != nil {
		t.Fatal(err)
	}
	if switched != 0 {
		t.Errorf("switched = %d nodes on a 10-group workload", switched)
	}
}

func TestDistributedSingleNode(t *testing.T) {
	rel := workload.Uniform(1, 5_000, 300, 8)
	for _, alg := range algorithms() {
		got, _, err := Run(rel.PerNode, alg, 100)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		verify(t, rel, got)
	}
}

func TestDistributedEmpty(t *testing.T) {
	got, _, err := Run(nil, TwoPhase, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty cluster produced %d groups", len(got))
	}
	// Nodes with empty partitions still complete the protocol.
	parts := make([][]tuple.Tuple, 3)
	got, _, err = Run(parts, Repartitioning, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty partitions produced %d groups", len(got))
	}
	// So do clusters where only some nodes have input: the idle nodes'
	// EOS (and under Rep nothing else) is all their peers hear of them.
	rel := workload.Uniform(1, 2_000, 150, 9)
	rel.PerNode = [][]tuple.Tuple{nil, rel.PerNode[0], nil}
	for _, alg := range algorithms() {
		got, _, err := Run(rel.PerNode, alg, 16)
		if err != nil {
			t.Fatalf("%v with two empty partitions: %v", alg, err)
		}
		verify(t, rel, got)
	}
}

func TestRunNodeValidatesConfig(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunNode(ln, Config{ID: 0, Addrs: nil}, nil); err == nil {
		t.Error("empty address list accepted")
	}
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	if _, err := RunNode(ln2, Config{ID: 5, Addrs: []string{"x"}}, nil); err == nil {
		t.Error("out-of-range id accepted")
	}
	// A batch no frame could carry is refused here, not after the cluster
	// has formed as a write failure blamed on a healthy peer.
	ln3, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln3.Close()
	_, err = RunNode(ln3, Config{ID: 0, Addrs: []string{ln3.Addr().String()}, Batch: maxFrameRecords + 1}, nil)
	var ne *NodeError
	if err == nil || errors.As(err, &ne) {
		t.Errorf("Batch over the wire limit: %v, want a plain config error", err)
	}
	if c, err := net.Dial("tcp", ln3.Addr().String()); err != nil {
		t.Errorf("the rejected config closed or consumed the listener: %v", err)
	} else {
		c.Close()
	}
	// A frame names its origin in one byte: a tolerant cluster it cannot
	// address is refused the same way.
	addrs := make([]string, maxOrigins+1)
	for i := range addrs {
		addrs[i] = ln3.Addr().String()
	}
	cfg := tolerantTemplate(TwoPhase)
	cfg.Addrs = addrs
	cfg.PartitionSource = func(int) []tuple.Tuple { return nil }
	if _, err = RunNode(ln3, cfg, nil); err == nil || errors.As(err, &ne) {
		t.Errorf("Tolerate with %d nodes: %v, want a plain config error", len(addrs), err)
	}
	if c, err := net.Dial("tcp", ln3.Addr().String()); err != nil {
		t.Errorf("the rejected tolerant config closed or consumed the listener: %v", err)
	} else {
		c.Close()
	}
	// The largest addressable tolerant cluster passes that check and
	// reaches the next one, which leaves the listener open too.
	cfg.Addrs, cfg.PartitionSource = addrs[:maxOrigins], nil
	if _, err = RunNode(ln3, cfg, nil); err == nil || !strings.Contains(err.Error(), "PartitionSource") {
		t.Errorf("Tolerate with %d nodes: %v, want only the missing PartitionSource refused", maxOrigins, err)
	}
	if c, err := net.Dial("tcp", ln3.Addr().String()); err != nil {
		t.Errorf("the config without PartitionSource closed the listener: %v", err)
	} else {
		c.Close()
	}
}

// A template RunConfigured refuses leaves no listener open.
func TestRunConfiguredRejectionLeaksNoListener(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors in /proc/self/fd")
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	before := fds()
	for _, c := range []struct {
		nodes int
		cfg   Config
	}{
		{4, Config{Batch: maxFrameRecords + 1}},
		{maxOrigins + 1, Config{Tolerate: true}},
	} {
		if _, err := RunConfigured(make([][]tuple.Tuple, c.nodes), c.cfg); err == nil {
			t.Fatalf("%d nodes, %+v: accepted", c.nodes, c.cfg)
		}
	}
	if after := fds(); after != before {
		t.Errorf("%d descriptors open before the rejected runs, %d after", before, after)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Batch != 1024 || c.DialTimeout != 5*time.Second || c.IOTimeout != 30*time.Second {
		t.Errorf("defaults = %+v", c)
	}
	// Negative IOTimeout opts out of deadlines entirely.
	if got := (Config{IOTimeout: -1}).withDefaults().IOTimeout; got != 0 {
		t.Errorf("IOTimeout(-1) -> %v, want 0 (disabled)", got)
	}
	// Explicit values survive.
	c = Config{IOTimeout: time.Second, DialTimeout: time.Second}.withDefaults()
	if c.IOTimeout != time.Second || c.DialTimeout != time.Second {
		t.Errorf("explicit timeouts clobbered: %+v", c)
	}
}

func TestAlgorithmNames(t *testing.T) {
	if TwoPhase.String() != "2P" || Repartitioning.String() != "Rep" ||
		AdaptiveTwoPhase.String() != "A-2P" || AdaptiveRepartitioning.String() != "A-Rep" {
		t.Error("algorithm names wrong")
	}
}

func TestDistributedARepFallsBack(t *testing.T) {
	// Few groups: every node should fall back to the two-phase strategy
	// via its own observation or the relayed end-of-phase frame.
	rel := workload.Uniform(4, 40_000, 5, 9)
	got, err := RunConfigured(rel.PerNode, Config{
		Algorithm:    AdaptiveRepartitioning,
		TableEntries: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, got.Groups)
	if got.Switched == 0 {
		t.Error("no node fell back on a 5-group workload")
	}

	// Many groups: a 500-tuple window projects past the bound, and
	// everyone keeps repartitioning.
	rel = workload.Uniform(4, 40_000, 20_000, 10)
	got, err = RunConfigured(rel.PerNode, Config{
		Algorithm:    AdaptiveRepartitioning,
		TableEntries: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, got.Groups)
	if got.Switched != 0 {
		t.Errorf("%d nodes fell back on a 20000-group workload", got.Switched)
	}
}

func TestDistributedARepFallbackThenOverflow(t *testing.T) {
	// Few DISTINCT early groups trigger the fallback, but the relation has
	// more groups than the bound overall: nodes fall back, overflow, and
	// switch forward again — the full A-Rep → A-2P → Rep journey. The
	// answer must survive all of it. A 32-tuple window of Zipf's hot keys
	// looks like few groups.
	rel := workload.Zipf(4, 40_000, 5_000, 1.6, 11)
	got, err := RunConfigured(rel.PerNode, Config{
		Algorithm:    AdaptiveRepartitioning,
		TableEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, got.Groups)
}

func TestDistributedNodeMetricsRepShipsAllRaw(t *testing.T) {
	rel := workload.Uniform(1, 5_000, 50, 13)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNode(ln, Config{
		ID:        0,
		Addrs:     []string{ln.Addr().String()},
		Algorithm: Repartitioning,
	}, rel.PerNode[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RawSent != 5_000 {
		t.Errorf("RawSent = %d, want 5000", res.RawSent)
	}
	if res.PartialsSent != 0 {
		t.Errorf("PartialsSent = %d, want 0", res.PartialsSent)
	}
	// 2P ships only partials: 50 groups.
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	res, err = RunNode(ln2, Config{
		ID:        0,
		Addrs:     []string{ln2.Addr().String()},
		Algorithm: TwoPhase,
	}, rel.PerNode[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RawSent != 0 || res.PartialsSent != 50 {
		t.Errorf("2P sent raw=%d partials=%d, want 0/50", res.RawSent, res.PartialsSent)
	}
}

func TestDistributedLargerClusterStress(t *testing.T) {
	// 8 nodes, all four algorithms, heavier relation: full-mesh = 64 TCP
	// connections per run, exercising connection setup, framing and the
	// merge protocol at a realistic fan-in.
	rel := workload.Uniform(8, 80_000, 9_000, 14)
	for _, alg := range algorithms() {
		got, _, err := Run(rel.PerNode, alg, 512)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		verify(t, rel, got)
	}
}

func TestDistributedDeterministicAnswer(t *testing.T) {
	// Wall-clock timing varies across runs, but the ANSWER never does.
	rel := workload.Zipf(4, 30_000, 3_000, 1.4, 15)
	a, _, err := Run(rel.PerNode, AdaptiveTwoPhase, 128)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(rel.PerNode, AdaptiveTwoPhase, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("group counts differ: %d vs %d", len(a), len(b))
	}
	for k, s := range a {
		if b[k] != s {
			t.Fatalf("group %d differs across runs", k)
		}
	}
}

func TestJitterRandSeeded(t *testing.T) {
	// Dial-backoff jitter must be a pure function of (Seed, ID) so chaos
	// scenarios replay identically; distinct nodes must not share a
	// sequence even when built from one template Config.
	draw := func(cfg Config) [8]int64 {
		rng := jitterRand(cfg)
		var out [8]int64
		for i := range out {
			out[i] = rng.Int63n(1 << 20)
		}
		return out
	}
	a := draw(Config{Seed: 7, ID: 3})
	if b := draw(Config{Seed: 7, ID: 3}); a != b {
		t.Errorf("same (Seed, ID) drew different jitter: %v vs %v", a, b)
	}
	if c := draw(Config{Seed: 7, ID: 4}); a == c {
		t.Errorf("different node IDs drew identical jitter: %v", a)
	}
	if d := draw(Config{Seed: 8, ID: 3}); a == d {
		t.Errorf("different seeds drew identical jitter: %v", a)
	}
}
