package dist

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"parallelagg/internal/faultnet"
	"parallelagg/internal/obs"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// chaosSeed seeds both the workload generator and every fault injector
// in the recovery matrix. Reproduce a CI failure locally with
//
//	go test -race -run TestChaosRecovery ./internal/dist/ -chaos-seed=<seed>
//
// where <seed> comes from the uploaded chaos-seed artifact.
var chaosSeed = flag.Int64("chaos-seed", 17, "seed for the recovery chaos matrix (workload + injectors)")

// saveChaosArtifact records a failing seed + scenario so CI can upload
// it. No-op unless CHAOS_ARTIFACT_DIR is set.
func saveChaosArtifact(t *testing.T, scenario string) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifact: %v", err)
		return
	}
	path := filepath.Join(dir, "chaos-seed.txt")
	line := fmt.Sprintf("scenario=%s seed=%d repro: go test -race -run TestChaosRecovery ./internal/dist/ -chaos-seed=%d\n",
		scenario, *chaosSeed, *chaosSeed)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("chaos artifact: %v", err)
		return
	}
	defer f.Close()
	f.WriteString(line)
}

// recoveryTemplate is the cluster config for the fault matrix: heartbeat
// thresholds fast enough that a killed or deaf victim is declared dead
// in a few hundred milliseconds, and I/O deadlines short enough that a
// hung operation fails the same order of magnitude later.
func recoveryTemplate(alg Algorithm) Config {
	return Config{
		Algorithm:      alg,
		Tolerate:       true,
		Batch:          256,
		DialTimeout:    1500 * time.Millisecond,
		IOTimeout:      800 * time.Millisecond,
		HeartbeatEvery: 40 * time.Millisecond,
		SuspectAfter:   200 * time.Millisecond,
		DeadAfter:      600 * time.Millisecond,
	}
}

// launchTolerant runs an n-node in-process tolerant cluster like
// RunConfigured, but with a per-node hook so a single victim can carry a
// fault injector (RunConfigured's template hooks apply to every node,
// which would take the whole cluster down with it). The combine mirrors
// RunConfigured's tolerant path; the nodes run under watched, so a hang
// fails with the case named.
func launchTolerant(t *testing.T, parts [][]tuple.Tuple, template Config, perNode func(id int, cfg *Config)) (*ClusterResult, []error) {
	t.Helper()
	n := len(parts)
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	template.PartitionSource = func(node int) []tuple.Tuple {
		if node < 0 || node >= len(parts) {
			return nil
		}
		return parts[node]
	}
	results := make([]*NodeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			cfg := template
			cfg.ID = i
			cfg.Addrs = addrs
			if perNode != nil {
				perNode(i, &cfg)
			}
			results[i], errs[i] = RunNode(listeners[i], cfg, parts[i])
		}()
	}
	watched(t, t.Name(), wg.Wait)
	if errs[0] != nil {
		t.Fatalf("supervisor (node 0) failed: %v", errs[0])
	}
	out := &ClusterResult{Groups: make(map[tuple.Key]tuple.AggState)}
	dead := make(map[int]bool)
	for _, d := range results[0].DeadPeers {
		dead[d] = true
		out.Dead = append(out.Dead, d)
	}
	for i, err := range errs {
		if err != nil && !dead[i] {
			t.Fatalf("live node %d failed: %v", i, err)
		}
	}
	for i, r := range results {
		if dead[i] || r == nil {
			continue
		}
		if r.Switched {
			out.Switched++
		}
		for k, s := range r.Groups {
			if _, dup := out.Groups[k]; dup {
				t.Fatalf("group %d produced by two nodes (second: %d)", k, i)
			}
			out.Groups[k] = s
		}
	}
	return out, errs
}

// sameGroups requires two result maps to be identical — the
// byte-identity obligation (integer aggregation states compare exactly).
func sameGroups(t *testing.T, scenario string, got, want map[tuple.Key]tuple.AggState) {
	t.Helper()
	fail := func(format string, args ...any) {
		saveChaosArtifact(t, scenario)
		t.Fatalf("%s: %s", scenario, fmt.Sprintf(format, args...))
	}
	if len(got) != len(want) {
		fail("got %d groups, want %d", len(got), len(want))
	}
	for k, ws := range want {
		if gs, ok := got[k]; !ok || gs != ws {
			fail("group %d = %v, want %v", k, got[k], ws)
		}
	}
}

// TestChaosRecoveryMatrix is the hard deliverable: a seeded fault in
// every protocol phase — crash, hang, and one-way partition during dial,
// scan, and merge — and the surviving cluster must produce results
// identical to the fault-free run over the same workload, with zero
// leaked goroutines.
//
// Fault phases are targeted with operation-count triggers sized against
// the victim's minimum operation budget; a trigger of count c fails
// operation c+1. A node connects to its three peers only (its own share
// never touches a socket), so a clean run costs it at least 7 connection
// writes — 3 hellos, each flushed at its dial; 3 EOS, each flushed; 1
// done, after the EOS to node 0 — and 4 reads: one per peer connection,
// which must carry that peer's EOS, and a second on node 0's, carrying
// the finish that is sent only after our done. (Clean runs measure 8–10
// writes and 7–9 reads: a read usually carries a hello alone, but one
// read may take a whole stream.) So a write count up to 6 and a read
// count up to 3 ALWAYS fire before the query can complete. Count 1
// lands in cluster formation; count 6 (writes) after the hellos and
// first heartbeats, i.e. the scan/exchange; count 3 (reads) after the
// inbound hellos, i.e. the merge drain.
// Placement is approximate by design — the protocol must survive a
// fault at ANY operation, which is what makes approximate targeting
// sufficient; the assertion is result identity, not fault position.
func TestChaosRecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery matrix needs real time for liveness thresholds")
	}
	const victim = 2
	rel := workload.Uniform(4, 8_000, 500, *chaosSeed)

	baseline, _ := launchTolerant(t, rel.PerNode, recoveryTemplate(TwoPhase), nil)
	if len(baseline.Dead) != 0 {
		t.Fatalf("baseline run declared %v dead", baseline.Dead)
	}
	verify(t, rel, baseline.Groups)

	scenarios := []struct {
		name   string
		faults faultnet.Config
	}{
		{"crash-dial", faultnet.Config{KillWrites: 1}},
		{"crash-scan", faultnet.Config{KillWrites: 6}},
		{"crash-merge", faultnet.Config{KillReads: 3}},
		{"hang-dial", faultnet.Config{HangWrites: 1}},
		{"hang-scan", faultnet.Config{HangWrites: 6}},
		{"hang-merge", faultnet.Config{HangReads: 3}},
		{"oneway-tx", faultnet.Config{OneWayTx: 1}},
		{"oneway-rx", faultnet.Config{OneWayRx: 1}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			leakCheck(t)
			fc := sc.faults
			fc.Seed = *chaosSeed
			inj := faultnet.New(fc)
			res, errs := launchTolerant(t, rel.PerNode, recoveryTemplate(TwoPhase), func(id int, cfg *Config) {
				if id != victim {
					return
				}
				cfg.Dial = inj.Dialer(nil)
				cfg.WrapListener = inj.Listener
			})
			victimDead := false
			for _, d := range res.Dead {
				if d == victim {
					victimDead = true
				}
			}
			if !victimDead {
				saveChaosArtifact(t, sc.name)
				t.Fatalf("%s: victim not declared dead (dead=%v, victim err=%v)", sc.name, res.Dead, errs[victim])
			}
			sameGroups(t, sc.name, res.Groups, baseline.Groups)
		})
	}
}

// TestChaosTwoNodeSupervisorFinishesAlone crashes node 1 of a two-node
// tolerant cluster mid-scan. Node 0's only inbound connection dies with
// it, yet node 0 is not deaf: it hears itself (its ticks and its self
// slot), declares node 1 dead, re-executes its partition through its own
// self slot and finishes with the fault-free answer.
func TestChaosTwoNodeSupervisorFinishesAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("needs real time for liveness thresholds")
	}
	leakCheck(t)
	rel := workload.Uniform(2, 8_000, 500, *chaosSeed+3)
	template := recoveryTemplate(TwoPhase)
	baseline, _ := launchTolerant(t, rel.PerNode, template, nil)
	verify(t, rel, baseline.Groups)

	// A clean run costs node 1 three writes (hello, EOS, done); count 2
	// fails the third, after its hello and first heartbeat.
	inj := faultnet.New(faultnet.Config{Seed: *chaosSeed, KillWrites: 2})
	res, errs := launchTolerant(t, rel.PerNode, template, func(id int, cfg *Config) {
		if id == 1 {
			cfg.Dial = inj.Dialer(nil)
			cfg.WrapListener = inj.Listener
		}
	})
	if len(res.Dead) != 1 || res.Dead[0] != 1 {
		saveChaosArtifact(t, "two-node")
		t.Fatalf("dead = %v, want [1] (node 1 err=%v)", res.Dead, errs[1])
	}
	sameGroups(t, "two-node", res.Groups, baseline.Groups)
}

// TestChaosRecoveryDowngrade drives recovery into memory pressure: the
// victim dies mid-scan and the re-execution jobs hit a 48-entry table
// bound over a 500-group workload, so recovery MUST downgrade to raw
// shipping (A-2P -> Rep) rather than refuse — and still match the
// fault-free answer.
func TestChaosRecoveryDowngrade(t *testing.T) {
	if testing.Short() {
		t.Skip("needs real time for liveness thresholds")
	}
	leakCheck(t)
	const victim = 2
	rel := workload.Uniform(4, 8_000, 500, *chaosSeed+1)

	template := recoveryTemplate(AdaptiveTwoPhase)
	template.TableEntries = 48
	baseline, _ := launchTolerant(t, rel.PerNode, template, nil)
	verify(t, rel, baseline.Groups)

	// Count 6 is under the victim's 7-write budget (TestChaosRecoveryMatrix).
	inj := faultnet.New(faultnet.Config{Seed: *chaosSeed, KillWrites: 6})
	reg := obs.New()
	template.Obs = reg
	res, _ := launchTolerant(t, rel.PerNode, template, func(id int, cfg *Config) {
		if id != victim {
			return
		}
		cfg.Dial = inj.Dialer(nil)
		cfg.WrapListener = inj.Listener
	})
	sameGroups(t, "downgrade", res.Groups, baseline.Groups)
	snap := string(reg.Snapshot())
	if got := sumMetric(t, snap, "dist_recover_downgrades_total", ""); got <= 0 {
		saveChaosArtifact(t, "downgrade")
		t.Errorf("dist_recover_downgrades_total = %v, want > 0 (recovery under a 48-entry bound)", got)
	}
	if got := sumMetric(t, snap, "dist_recover_reships_total", ""); got <= 0 {
		t.Errorf("dist_recover_reships_total = %v, want > 0", got)
	}
	if got := sumMetric(t, snap, "dist_recover_deaths_total", ""); got != 1 {
		t.Errorf("dist_recover_deaths_total = %v, want 1", got)
	}
}

// TestChaosRecoverySpeculation injects latency (not failure) into one
// node: its hellos crawl, so its scan starts hundreds of milliseconds
// after the others have reported full progress while its heartbeats
// (reporting 0 permille) stay fresh — the definition of a straggler.
// The supervisor speculatively re-executes its partition on a survivor;
// first complete attempt wins per receiver slot, the loser is discarded
// as stale, the answer does not change, and nobody dies.
func TestChaosRecoverySpeculation(t *testing.T) {
	if testing.Short() {
		t.Skip("needs real time for liveness thresholds")
	}
	leakCheck(t)
	const straggler = 2
	rel := workload.Uniform(4, 8_000, 500, *chaosSeed+2)

	template := recoveryTemplate(Repartitioning)
	template.SpeculateFactor = 2
	// Generous death thresholds: a slow node must NOT be declared dead,
	// and the straggler's 80ms-per-write heartbeat rounds must stay well
	// inside the suspicion window.
	template.SuspectAfter = 2 * time.Second
	template.DeadAfter = 8 * time.Second
	template.IOTimeout = 8 * time.Second
	baseline, _ := launchTolerant(t, rel.PerNode, template, nil)
	verify(t, rel, baseline.Groups)

	inj := faultnet.New(faultnet.Config{Seed: *chaosSeed, Latency: 80 * time.Millisecond})
	reg := obs.New()
	template.Obs = reg
	res, errs := launchTolerant(t, rel.PerNode, template, func(id int, cfg *Config) {
		if id != straggler {
			return
		}
		cfg.Dial = inj.Dialer(nil)
		cfg.WrapListener = inj.Listener
	})
	if len(res.Dead) != 0 {
		saveChaosArtifact(t, "speculation")
		t.Fatalf("straggler was declared dead: dead=%v err=%v", res.Dead, errs[straggler])
	}
	sameGroups(t, "speculation", res.Groups, baseline.Groups)
	snap := string(reg.Snapshot())
	if got := sumMetric(t, snap, "dist_recover_reassign_total", `"speculative"`); got <= 0 {
		saveChaosArtifact(t, "speculation")
		t.Errorf("no speculative reassignment fired; straggler progress never lagged?\n%s", snap)
	}
	// Exactly one of the two complete attempts wins each slot; the other
	// is discarded — so stale frames must show up, and deaths must not.
	if got := sumMetric(t, snap, "dist_recover_stale_frames_total", ""); got <= 0 {
		t.Errorf("dist_recover_stale_frames_total = %v, want > 0 (speculative loser)", got)
	}
	if got := sumMetric(t, snap, "dist_recover_deaths_total", ""); got != 0 {
		t.Errorf("dist_recover_deaths_total = %v, want 0", got)
	}
}
