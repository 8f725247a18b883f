package dist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"parallelagg/internal/obs"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// supConfig builds a supervisor config with explicit thresholds so the
// pure state machine can be driven with synthetic clocks, no sleeping.
func supConfig(n int) Config {
	return Config{
		Addrs:           make([]string, n),
		HeartbeatEvery:  100 * time.Millisecond,
		SuspectAfter:    400 * time.Millisecond,
		DeadAfter:       time.Second,
		SpeculateFactor: 2,
	}
}

func TestSupervisorClassify(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := newSupervisor(supConfig(3), t0)

	if got := s.classify(1, t0.Add(200*time.Millisecond)); got != Live {
		t.Errorf("fresh node classified %v", got)
	}
	if got := s.classify(1, t0.Add(500*time.Millisecond)); got != Suspect {
		t.Errorf("stale node classified %v, want suspect", got)
	}
	s.beat(1, 0, t0.Add(500*time.Millisecond))
	if got := s.classify(1, t0.Add(600*time.Millisecond)); got != Live {
		t.Errorf("re-beaten node classified %v, want live", got)
	}
	s.complain(2, 1)
	if got := s.classify(1, t0.Add(600*time.Millisecond)); got != Suspect {
		t.Errorf("complained-about node classified %v, want suspect", got)
	}
	for _, l := range []Liveness{Live, Suspect, Dead, Liveness(42)} {
		if l.String() == "" {
			t.Errorf("Liveness(%d) has empty String", l)
		}
	}
}

func TestSupervisorDeathByStaleness(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := newSupervisor(supConfig(4), t0)
	// Everyone but node 2 keeps beating.
	later := t0.Add(1100 * time.Millisecond)
	for _, i := range []int{0, 1, 3} {
		s.beat(i, 1000, later)
	}
	as := s.decide(later)
	if len(as) != 1 || as[0].Node != 2 || !as[0].Dead || as[0].Epoch != 1 {
		t.Fatalf("decide = %+v, want node 2 dead at epoch 1", as)
	}
	if as[0].Worker == 2 {
		t.Fatalf("dead node picked as its own worker")
	}
	if s.partAssignee[2] != as[0].Worker || s.rangeOwner[2] != as[0].Worker {
		t.Errorf("duty mirrors not moved: assignee=%d owner=%d", s.partAssignee[2], s.rangeOwner[2])
	}
	if got := s.classify(2, later); got != Dead {
		t.Errorf("declared node classified %v", got)
	}
	// Death is latched: no duplicate assignment on the next tick.
	if as := s.decide(later.Add(time.Millisecond)); len(as) != 0 {
		t.Errorf("second decide re-issued %+v", as)
	}
	// A dead node's late beats and complaints change nothing.
	s.beat(2, 1000, later.Add(time.Second))
	s.complain(2, 1)
	s.beat(1, 1000, later.Add(time.Second))
	if s.shouldDie(1, later.Add(time.Second+time.Millisecond)) {
		t.Error("zombie complaint killed a live node")
	}
}

func TestSupervisorNeverKillsItself(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := newSupervisor(supConfig(3), t0)
	// Node 0 hopelessly stale and slandered by everyone: still not dead —
	// it IS the failure detector (documented SPOF; its loss fails the query).
	s.complain(1, 0)
	s.complain(2, 0)
	if s.shouldDie(0, t0.Add(time.Hour)) {
		t.Fatal("supervisor declared itself dead")
	}
}

func TestSupervisorDeathByComplaint(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := newSupervisor(supConfig(4), t0)
	at := t0.Add(500 * time.Millisecond)
	for _, i := range []int{0, 2, 3} {
		s.beat(i, 0, at)
	}
	// Node 1 stale past SuspectAfter (but not DeadAfter) plus one complaint.
	if s.shouldDie(1, at) {
		t.Fatal("stale-only node died before DeadAfter")
	}
	s.complain(3, 1)
	if !s.shouldDie(1, at) {
		t.Fatal("suspect-plus-complaint did not die")
	}
}

func TestSupervisorDeathByMajority(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := newSupervisor(supConfig(5), t0)
	at := t0.Add(10 * time.Millisecond)
	for i := 0; i < 5; i++ {
		s.beat(i, 0, at) // everyone fresh
	}
	s.complain(0, 4)
	s.complain(1, 4)
	if s.shouldDie(4, at) {
		t.Fatal("died below the complaint majority")
	}
	s.complain(2, 4)
	if !s.shouldDie(4, at) {
		t.Fatal("fresh node with majority complaints survived")
	}
}

func TestSupervisorIsolationRule(t *testing.T) {
	// Node 3 complains about a majority of fresh peers: the complainer,
	// not the accused, is behind the broken link.
	t0 := time.Unix(100, 0)
	s := newSupervisor(supConfig(4), t0)
	at := t0.Add(10 * time.Millisecond)
	for i := 0; i < 4; i++ {
		s.beat(i, 0, at)
	}
	s.complain(3, 1)
	if s.isolated(3, at) {
		t.Fatal("isolated with a single complaint")
	}
	s.complain(3, 2)
	if !s.isolated(3, at) {
		t.Fatal("majority-blaming node not isolated")
	}
	as := s.decide(at)
	if len(as) != 1 || as[0].Node != 3 || !as[0].Dead {
		t.Fatalf("decide = %+v, want node 3 dead", as)
	}
	// The accused stay alive.
	for _, i := range []int{1, 2} {
		if s.dead[i] {
			t.Errorf("accused node %d died", i)
		}
	}
}

func TestSupervisorSpeculation(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := newSupervisor(supConfig(4), t0)
	at := t0.Add(50 * time.Millisecond)
	s.beat(0, 1000, at)
	s.beat(1, 1000, at)
	s.beat(2, 1000, at)
	s.beat(3, 100, at)
	as := s.decide(at)
	if len(as) != 1 || as[0].Node != 3 || as[0].Dead || as[0].Epoch != 1 {
		t.Fatalf("decide = %+v, want speculative assignment for node 3", as)
	}
	// Speculation is latched per node and moves no duties.
	if s.partAssignee[3] != 3 || s.rangeOwner[3] != 3 {
		t.Errorf("speculative assignment moved duties")
	}
	if as := s.decide(at.Add(time.Millisecond)); len(as) != 0 {
		t.Errorf("speculation re-fired: %+v", as)
	}
	// A finished straggler (progress 1000) never triggers speculation.
	s2 := newSupervisor(supConfig(4), t0)
	for i := 0; i < 4; i++ {
		s2.beat(i, 1000, at)
	}
	if as := s2.decide(at); len(as) != 0 {
		t.Errorf("all-done cluster speculated: %+v", as)
	}
	// SpeculateFactor 0 disables the rule entirely.
	cfg := supConfig(4)
	cfg.SpeculateFactor = 0
	s3 := newSupervisor(cfg, t0)
	s3.beat(0, 1000, at)
	s3.beat(1, 1000, at)
	s3.beat(2, 1000, at)
	s3.beat(3, 100, at)
	if as := s3.decide(at); len(as) != 0 {
		t.Errorf("disabled speculation fired: %+v", as)
	}
}

func TestSupervisorPickWorker(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := newSupervisor(supConfig(4), t0)
	if w := s.pickWorker(2); w != 0 {
		t.Errorf("balanced load picked worker %d, want 0 (lowest id)", w)
	}
	// Node 3 died and its partition moved to node 0: the next pick
	// avoids the loaded node 0 and of course the dead node 3.
	s.dead[3] = true
	s.partAssignee[3] = 0
	if w := s.pickWorker(2); w != 1 {
		t.Errorf("loaded cluster picked worker %d, want 1", w)
	}
	s.dead[1] = true
	if w := s.pickWorker(2); w != 0 {
		t.Errorf("with only node 0 left picked worker %d, want 0", w)
	}
}

func TestSupervisorFinished(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := newSupervisor(supConfig(3), t0)
	if s.finished() {
		t.Fatal("finished before any done report")
	}
	s.done(0, 0)
	s.done(1, 0)
	s.done(2, 0)
	if !s.finished() {
		t.Fatal("not finished with every node done at epoch 0")
	}
	// A death bumps the epoch: stale watermarks no longer count.
	at := t0.Add(2 * time.Second)
	s.beat(0, 1000, at)
	s.beat(1, 1000, at)
	s.decide(at) // node 2 dies, epoch 1
	if s.finished() {
		t.Fatal("finished with pre-death watermarks")
	}
	s.done(0, 1)
	s.done(1, 1)
	if !s.finished() {
		t.Fatal("not finished after post-death re-reports")
	}
	if len(s.takeSuspects()) == 0 {
		t.Error("death left no suspicion transition for metrics")
	}
	if len(s.takeSuspects()) != 0 {
		t.Error("takeSuspects did not drain")
	}
}

// tolerantTemplate is a cluster template for fault-free tolerant runs:
// thresholds generous enough that scheduler hiccups under -race cannot
// fake a death.
func tolerantTemplate(alg Algorithm) Config {
	return Config{
		Algorithm:      alg,
		Tolerate:       true,
		Batch:          256,
		DialTimeout:    2 * time.Second,
		IOTimeout:      2 * time.Second,
		HeartbeatEvery: 50 * time.Millisecond,
		SuspectAfter:   time.Second,
		DeadAfter:      3 * time.Second,
	}
}

func TestTolerantFaultFreeAllAlgorithms(t *testing.T) {
	rel := workload.Uniform(4, 8_000, 500, 11)
	for _, alg := range algorithms() {
		template := tolerantTemplate(alg)
		template.TableEntries = 256
		res, err := RunConfigured(rel.PerNode, template)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Dead) != 0 {
			t.Fatalf("%v: fault-free run declared %v dead", alg, res.Dead)
		}
		verify(t, rel, res.Groups)
	}
}

func TestTolerantAdaptiveSwitch(t *testing.T) {
	// A tiny bound forces the A-2P switch on every node, over the
	// tolerant protocol (mixed partial + raw frames in one stream).
	rel := workload.Uniform(4, 8_000, 4_000, 12)
	template := tolerantTemplate(AdaptiveTwoPhase)
	template.TableEntries = 64
	res, err := RunConfigured(rel.PerNode, template)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switched != 4 {
		t.Errorf("switched = %d nodes, want 4", res.Switched)
	}
	verify(t, rel, res.Groups)
}

func TestTolerantAdaptiveRepFallback(t *testing.T) {
	// One group: A-Rep observes low cardinality and falls back to local
	// aggregation, broadcasting EOP over tolerant control frames.
	rel := workload.Uniform(4, 8_000, 1, 13)
	template := tolerantTemplate(AdaptiveRepartitioning)
	template.TableEntries = 1024 // a 512-tuple window
	res, err := RunConfigured(rel.PerNode, template)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, res.Groups)
	if res.Switched != 4 {
		t.Errorf("switched = %d nodes, want all 4 fallen back", res.Switched)
	}
}

func TestTolerantSingleNodeAndEmpty(t *testing.T) {
	rel := workload.Uniform(1, 3_000, 100, 15)
	res, err := RunConfigured(rel.PerNode, tolerantTemplate(TwoPhase))
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, res.Groups)

	// Empty partitions still complete the tolerant protocol (progress
	// reports 1000 immediately; every slot satisfied by bare EOS).
	parts := make([][]tuple.Tuple, 3)
	res, err = RunConfigured(parts, tolerantTemplate(Repartitioning))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("empty partitions produced %d groups", len(res.Groups))
	}
}

func TestTolerateRequiresPartitionSource(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tolerantTemplate(TwoPhase)
	cfg.ID = 0
	cfg.Addrs = []string{ln.Addr().String()}
	_, err = RunNode(ln, cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "PartitionSource") {
		t.Fatalf("RunNode error = %v, want PartitionSource requirement", err)
	}
}

// sumMetric adds every series value of the named family in a prometheus
// text snapshot, optionally filtered by a label substring.
func sumMetric(t *testing.T, snap, family, labelSub string) float64 {
	t.Helper()
	var total float64
	for _, line := range strings.Split(snap, "\n") {
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		if labelSub != "" && !strings.Contains(line, labelSub) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(fields[len(fields)-1], &v); err != nil {
			continue
		}
		total += v
	}
	return total
}

func TestTolerantMetricsVisible(t *testing.T) {
	rel := workload.Uniform(3, 6_000, 300, 16)
	template := tolerantTemplate(TwoPhase)
	template.Obs = obs.New()
	res, err := RunConfigured(rel.PerNode, template)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, res.Groups)
	snap := string(template.Obs.Snapshot())
	if got := sumMetric(t, snap, "dist_recover_heartbeats_total", ""); got <= 0 {
		t.Errorf("dist_recover_heartbeats_total = %v, want > 0\n%s", got, snap)
	}
	// Every (receiver, partition) primary stream commits exactly once:
	// 3 nodes x 3 partitions.
	if got := sumMetric(t, snap, "dist_recover_stream_commits_total", `"primary"`); got != 9 {
		t.Errorf("primary stream commits = %v, want 9", got)
	}
	if got := sumMetric(t, snap, "dist_recover_stale_frames_total", ""); got != 0 {
		t.Errorf("fault-free run discarded %v stale frames", got)
	}
}

// TestCheckDeaf pins the give-up rule that keeps a node from waiting
// forever once no frame can ever reach it: all inbound connections dead
// AND either the full mesh (one conn per peer, n−1) had formed or the
// listener itself is gone. Found the hard way: a crashed node whose
// supervisor hello never completed used to hang until an external timeout
// killed it. Node 0 hears itself and is never deaf, which also covers a
// one-node cluster with no inbound connection at all.
func TestCheckDeaf(t *testing.T) {
	mkNode := func(id, n int) *tnode {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		cfg := Config{ID: id, Addrs: make([]string, n), Tolerate: true}
		return newTnode(ln, cfg.withDefaults(), nil)
	}
	mk := func() *tnode { return mkNode(1, 3) }
	cause := errors.New("conn torn down")

	nd := mk()
	nd.inboundDead = 1 // one of two peer conns dead, mesh count not reached
	nd.checkDeaf(cause)
	if nd.fatal != nil {
		t.Fatalf("fired with a conn still expected: %v", nd.fatal)
	}
	nd.inboundDead = 2
	nd.checkDeaf(cause)
	if nd.fatal == nil {
		t.Fatal("full mesh came and went, no live inbound: must fail")
	}

	// Node 0 outlives every peer connection and its listener; so does a
	// one-node cluster's only node, before and after its listener closes.
	for _, n := range []int{2, 3, 1} {
		nd = mkNode(0, n)
		nd.inboundDead = n - 1
		nd.checkDeaf(cause)
		nd.acceptClosed = true
		nd.acceptedCap = n - 1
		nd.checkDeaf(cause)
		nd.classifyReadErr(tevent{typ: evReadErr, peer: -1, err: cause})
		if nd.fatal != nil {
			t.Fatalf("node 0 of %d gave up with no peer left: %v", n, nd.fatal)
		}
	}

	// A live identified connection holds the rule off at any count.
	nd = mk()
	nd.inboundDead = 5
	nd.inbound[0] = nil
	nd.checkDeaf(cause)
	if nd.fatal != nil {
		t.Fatalf("fired with the supervisor conn still live: %v", nd.fatal)
	}

	// Listener gone caps the universe below n−1: one conn ever arrived
	// and died — nothing new can connect, so waiting is hopeless.
	nd = mk()
	nd.acceptClosed = true
	nd.acceptedCap = 1
	nd.inboundDead = 1
	nd.checkDeaf(cause)
	if nd.fatal == nil {
		t.Fatal("listener closed with every accepted conn dead: must fail")
	}

	// The isolation rule counts peers too: a node is isolated once the
	// hello of every peer's connection (n−1 of them) has failed.
	nd = mk()
	helloFail := tevent{typ: evReadErr, peer: -1, err: cause}
	nd.classifyReadErr(helloFail)
	if nd.fatal != nil {
		t.Fatalf("isolated after one of two peer hellos failed: %v", nd.fatal)
	}
	nd.classifyReadErr(helloFail)
	if nd.fatal == nil {
		t.Fatal("every peer hello failed: must be isolated")
	}

	// A finished or evicted node never converts teardown into failure.
	for _, setup := range []func(*tnode){
		func(nd *tnode) { nd.finished = true },
		func(nd *tnode) { nd.evicted = true },
	} {
		nd = mk()
		nd.inboundDead = 2
		setup(nd)
		nd.checkDeaf(cause)
		if nd.fatal != nil {
			t.Fatalf("fired after completion: %v", nd.fatal)
		}
	}
}

// No heartbeat of node 0's own reaches its supervisor: node 0 beats itself
// at each tick, so its freshness (which the isolation rule reads) and its
// scan progress (which the straggler rule's median counts) stay current.
func TestSupervisorBeatsItself(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := Config{ID: 0, Addrs: make([]string, 3), Tolerate: true}
	nd := newTnode(ln, cfg.withDefaults(), make([]tuple.Tuple, 1000))
	start := time.Now().Add(-nd.cfg.SuspectAfter / 2)
	nd.sup = newSupervisor(nd.cfg, start)
	nd.scanned.Store(400)
	nd.onTick()
	if got := nd.sup.progress[0]; got != 400 {
		t.Errorf("node 0 progress %d permille after a tick, want 400", got)
	}
	if !nd.sup.lastBeat[0].After(start) {
		t.Error("a tick left node 0's last beat at supervisor start")
	}
}

// A tolerant peer is up only once its hello is flushed. A heartbeat written
// between the dial and the hello reached the acceptor as a hello without
// the tolerant flag; it refused the connection as the other mode's, the
// dialer's next write failed, and the dialer dropped that peer's share for
// good while both nodes went on heartbeating — a query that never ended.
// Before open the peer must skip a tryWrite, while open's hello waits on
// the wire it must not be up, and after it the wire must carry the tolerant
// hello first and the heartbeat second.
func TestTolerantPeerUpOnlyAfterHello(t *testing.T) {
	dialer, acceptor := net.Pipe()
	defer dialer.Close()
	defer acceptor.Close()
	p := &peer{id: 1}
	beat := frame{kind: frameHeartbeat, aux: 500}
	if sent, err := p.tryWrite(beat); sent || err != nil {
		t.Fatalf("a peer without its hello took a heartbeat: sent=%v err=%v", sent, err)
	}
	opened := make(chan error, 1)
	go func() { opened <- p.open(dialer, 0, true) }()
	for p.mu.TryLock() { // until the hello, which nobody reads yet, holds the lock
		p.mu.Unlock()
		runtime.Gosched()
	}
	if p.up.Load() {
		t.Error("a peer is up before its hello is flushed")
	}
	wire := make(chan []byte, 1)
	go func() {
		b := make([]byte, 4+headerSize)
		io.ReadFull(acceptor, b)
		wire <- b
	}()
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
	if sent, err := p.tryWrite(beat); !sent || err != nil {
		t.Fatalf("a peer past its hello refused a heartbeat: sent=%v err=%v", sent, err)
	}
	b := <-wire
	if src, err := readHello(bytes.NewReader(b[:4]), 2, true); src != 0 || err != nil {
		t.Fatalf("first bytes read as hello from %d: %v", src, err)
	}
	if f, err := readFrame(bufio.NewReader(bytes.NewReader(b[4:])), nil); f.kind != frameHeartbeat || err != nil {
		t.Errorf("second frame is kind %d (%v), want a heartbeat", f.kind, err)
	}
}

// pipePeer is an opened peer over a net.Pipe with the given write timeout,
// and the pipe's far end, which has read the hello and reads nothing more
// until the caller does.
func pipePeer(t *testing.T, timeout time.Duration) (*peer, net.Conn) {
	dialer, acceptor := net.Pipe()
	t.Cleanup(func() {
		dialer.Close()
		acceptor.Close()
	})
	go io.ReadFull(acceptor, make([]byte, 4))
	p := &peer{id: 0, timeout: timeout}
	if err := p.open(dialer, 1, true); err != nil {
		t.Fatal(err)
	}
	return p, acceptor
}

// blockedWrite starts a raw write larger than p's buffer, which blocks on a
// far end that reads nothing, and returns once the write holds p's lock.
func blockedWrite(p *peer) <-chan error {
	werr := make(chan error, 1)
	go func() { werr <- p.write(frame{kind: frameRaw, raw: make([]tuple.Tuple, 1<<13)}) }()
	for p.mu.TryLock() { // until the writer holds the lock
		p.mu.Unlock()
		runtime.Gosched()
	}
	return werr
}

// markDown closes a peer's connection without waiting for its write lock.
// A write blocked on a peer that reads nothing holds that lock until its
// deadline (IOTimeout, 30 s by default), and the control loop, which calls
// markDown when it declares a peer dead, must not stall behind it: the
// close has to come at once and fail the blocked write.
func TestMarkDownDoesNotWaitForBlockedWrite(t *testing.T) {
	p, _ := pipePeer(t, 3*time.Second)
	werr := blockedWrite(p)
	start := time.Now()
	p.markDown()
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("markDown took %v behind a blocked write, want < 200ms", d)
	}
	select {
	case err := <-werr:
		if err == nil {
			t.Error("the blocked write succeeded on a peer marked down")
		}
	case <-time.After(time.Second):
		t.Error("the blocked write did not fail within 1s of markDown")
	}
}

// A complaint is advisory, and complainAbout runs on the control loop, so it
// must not wait for the supervisor's connection while another write holds
// it: a raw write blocked on a supervisor that drains nothing holds that
// connection until its IOTimeout deadline. The complaint skips the busy
// connection at once and stays pending, and the heartbeat loop delivers it
// once the connection is free, with no further complaint about the peer.
func TestComplaintDoesNotWaitForBlockedWrite(t *testing.T) {
	const timeout = 2 * time.Second
	nd := newTnode(nil, Config{ID: 1, Addrs: make([]string, 3), Tolerate: true,
		IOTimeout: timeout, HeartbeatEvery: 10 * time.Millisecond}, nil)
	p, supervisor := pipePeer(t, timeout)
	nd.peers[0] = p
	werr := blockedWrite(p)
	start := time.Now()
	nd.complainAbout(2, PhaseRead)
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("complainAbout took %v behind a blocked write, want < 200ms", d)
	}
	if nd.suspects[2].Load() == 0 {
		t.Fatal("a complaint skipped on a busy connection was not left pending")
	}

	beats := make(chan struct{})
	go func() {
		defer close(beats)
		nd.heartbeatLoop()
	}()
	defer func() {
		close(nd.done)
		<-beats
	}()
	frames := make(chan frame, 64)
	go func() {
		defer close(frames)
		r := bufio.NewReader(supervisor)
		for {
			f, err := readFrame(r, nil)
			if err != nil {
				return
			}
			frames <- f
		}
	}()
	if err := <-werr; err != nil {
		t.Fatalf("the raw write failed once drained: %v", err)
	}
	if f := <-frames; f.kind != frameRaw {
		t.Fatalf("first frame is kind %d, want the raw write", f.kind)
	}
	// The suspect arrives once: the beats after it carry no other.
	suspects := 0
	deadline, quiet := time.After(timeout), (<-chan time.Time)(nil)
	for {
		select {
		case f := <-frames:
			if f.kind == frameHeartbeat {
				continue
			}
			if f.kind != frameSuspect || f.origin != 2 || codePhase(f.aux) != PhaseRead {
				t.Errorf("frame kind %d origin %d phase %s, want a suspect of peer 2 in phase read", f.kind, f.origin, codePhase(f.aux))
			}
			if suspects++; suspects > 1 {
				t.Fatal("the pending complaint was sent twice")
			}
			quiet = time.After(10 * nd.cfg.HeartbeatEvery)
		case <-quiet:
			return
		case <-deadline:
			t.Fatal("the pending complaint did not reach the supervisor once its connection was free")
		}
	}
}
