package dist

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"parallelagg/internal/faultnet"
	"parallelagg/internal/workload"
)

// leakCheck fails the test if goroutines started during it are still
// alive shortly after it ends. Chaos tests must not use t.Parallel, or
// sibling tests' goroutines would pollute the count.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// chaosConfig is a two-node config with short timeouts so failure tests
// finish fast: node 0 is the real node under test, node 1 the saboteur.
func chaosConfig(addrs []string) Config {
	return Config{
		ID:          0,
		Addrs:       addrs,
		Algorithm:   TwoPhase,
		DialTimeout: 500 * time.Millisecond,
		IOTimeout:   300 * time.Millisecond,
	}
}

// runVictim runs RunNode for node 0 and requires a *NodeError within
// maxWait, returning it for phase assertions.
func runVictim(t *testing.T, ln net.Listener, cfg Config, maxWait time.Duration) *NodeError {
	t.Helper()
	rel := workload.Uniform(2, 2_000, 100, 1)
	start := time.Now()
	_, err := RunNode(ln, cfg, rel.PerNode[0])
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("RunNode succeeded against a sabotaged peer")
	}
	if elapsed > maxWait {
		t.Errorf("RunNode took %v to fail, want < %v", elapsed, maxWait)
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("error is not a *NodeError: %v", err)
	}
	if ne.NodeID != 0 {
		t.Errorf("NodeID = %d, want 0", ne.NodeID)
	}
	return ne
}

// sabotagePeer binds node 1's listener and runs script against the
// connection node 0 dials to it. If dialBack is true it also opens the
// reverse connection (sending its hello) so node 0's mesh forms.
func sabotagePeer(t *testing.T, victimAddr func() string, dialBack bool, script func(conn net.Conn)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if dialBack {
			back, err := net.Dial("tcp", victimAddr())
			if err == nil {
				writeHello(back, 1)
				t.Cleanup(func() { back.Close() })
			}
		}
		script(conn)
	}()
	return ln
}

// TestChaosPeerCrashMidExchange: the peer completes the handshake, then
// drops dead (connection closed, no EOS). Node 0 must report a read
// failure from peer 1 promptly, with no goroutine leaks.
func TestChaosPeerCrashMidExchange(t *testing.T) {
	leakCheck(t)
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fake := sabotagePeer(t, func() string { return ln0.Addr().String() }, true, func(conn net.Conn) {
		// Read node 0's hello like a healthy peer, then crash.
		readHello(conn, 2, false)
		time.Sleep(20 * time.Millisecond)
		conn.Close()
	})
	cfg := chaosConfig([]string{ln0.Addr().String(), fake.Addr().String()})
	ne := runVictim(t, ln0, cfg, 3*time.Second)
	if ne.Phase != PhaseRead && ne.Phase != PhaseWrite {
		t.Errorf("Phase = %q, want read or write", ne.Phase)
	}
}

// TestChaosPeerHangsSilently: the peer forms the mesh and then goes
// silent — never sends another byte, never closes. Only the IOTimeout
// read deadline can detect this; the error must be a timeout.
func TestChaosPeerHangsSilently(t *testing.T) {
	leakCheck(t)
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	fake := sabotagePeer(t, func() string { return ln0.Addr().String() }, true, func(conn net.Conn) {
		readHello(conn, 2, false)
		<-hold // silent: the connection stays open but nothing arrives
		conn.Close()
	})
	cfg := chaosConfig([]string{ln0.Addr().String(), fake.Addr().String()})
	ne := runVictim(t, ln0, cfg, 3*time.Second)
	if ne.Phase != PhaseRead {
		t.Errorf("Phase = %q, want read", ne.Phase)
	}
	if ne.Peer != 1 {
		t.Errorf("Peer = %d, want 1", ne.Peer)
	}
	if !errors.Is(ne.Err, os.ErrDeadlineExceeded) {
		t.Errorf("cause = %v, want deadline exceeded", ne.Err)
	}
}

// TestChaosPeerNeverReads: the peer accepts node 0's connection and holds
// it open but never drains it. Once the socket buffers fill, node 0's
// writes block; the per-frame write deadline must fire. Small socket
// buffers (via the Dial hook) keep the partition size modest.
func TestChaosPeerNeverReads(t *testing.T) {
	leakCheck(t)
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fake.Close() })
	go func() {
		conn, err := fake.Accept()
		if err != nil {
			return
		}
		// Outbound side is perfectly healthy (hello + EOS) so node 0's
		// reader finishes cleanly; the inbound side is never drained, so
		// only the write deadline can detect the fault.
		back, err := net.Dial("tcp", ln0.Addr().String())
		if err == nil {
			bw := bufio.NewWriter(back)
			writeHello(bw, 1)
			writeControl(bw, frameEOS, 1, 0, 0)
		}
		<-hold
		conn.Close()
		if back != nil {
			back.Close()
		}
	}()
	cfg := chaosConfig([]string{ln0.Addr().String(), fake.Addr().String()})
	cfg.Algorithm = Repartitioning // ship raw: lots of bytes toward peer 1
	cfg.Dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, timeout)
		if err == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetWriteBuffer(8 << 10) // fill fast
			}
		}
		return c, err
	}
	rel := workload.Uniform(2, 400_000, 50_000, 2)
	start := time.Now()
	_, err = RunNode(ln0, cfg, rel.PerNode[0])
	if err == nil {
		t.Fatal("RunNode succeeded writing to a peer that never reads")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("backpressure hang took %v to fail", elapsed)
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("error is not a *NodeError: %v", err)
	}
	// The stall can be detected by the blocked write's deadline or — when
	// the whole pipeline seizes — by an idle reader's deadline; either
	// way it must be a deadline, not a hang or a bare closed-conn echo.
	if ne.Phase != PhaseWrite && ne.Phase != PhaseRead {
		t.Errorf("Phase = %q, want write or read", ne.Phase)
	}
	if !errors.Is(ne.Err, os.ErrDeadlineExceeded) {
		t.Errorf("cause = %v, want deadline exceeded", ne.Err)
	}
}

// TestChaosResetDuringHello: the peer resets the connection during the
// handshake and never dials back — the mesh cannot form. Node 0 must give
// up within its formation/IO budget rather than hang the query.
func TestChaosResetDuringHello(t *testing.T) {
	leakCheck(t)
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fake := sabotagePeer(t, nil, false, func(conn net.Conn) {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0) // close emits RST, not FIN
		}
		conn.Close()
	})
	cfg := chaosConfig([]string{ln0.Addr().String(), fake.Addr().String()})
	ne := runVictim(t, ln0, cfg, 3*time.Second)
	// Depending on how fast the RST lands, node 0 sees either the broken
	// connection (hello/write) or the half-formed mesh (accept watchdog).
	switch ne.Phase {
	case PhaseHello, PhaseWrite, PhaseAccept, PhaseRead:
	default:
		t.Errorf("Phase = %q, unexpected", ne.Phase)
	}
}

// TestChaosDeadPeerDial: the peer address refuses connections outright.
// Backoff must retry until DialTimeout, then report a dial failure.
func TestChaosDeadPeerDial(t *testing.T) {
	leakCheck(t)
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Reserve an address that refuses connections: bind, note, close.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	cfg := chaosConfig([]string{ln0.Addr().String(), deadAddr})
	start := time.Now()
	_, err = RunNode(ln0, cfg, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("RunNode succeeded with a dead peer address")
	}
	if elapsed > 3*time.Second {
		t.Errorf("dead-peer dial took %v, want bounded by DialTimeout", elapsed)
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("error is not a *NodeError: %v", err)
	}
	if ne.Phase != PhaseDial && ne.Phase != PhaseAccept {
		t.Errorf("Phase = %q, want dial (or accept watchdog)", ne.Phase)
	}
	if ne.Phase == PhaseDial && ne.Peer != 1 {
		t.Errorf("Peer = %d, want 1", ne.Peer)
	}
}

// TestChaosLatencyJitterStillCorrect: a slow, jittery network must change
// only timing, never the answer.
func TestChaosLatencyJitterStillCorrect(t *testing.T) {
	leakCheck(t)
	inj := faultnet.New(faultnet.Config{
		Seed:    42,
		Latency: 200 * time.Microsecond,
		Jitter:  300 * time.Microsecond,
	})
	rel := workload.Uniform(3, 9_000, 400, 3)
	got, err := runWatched(t, t.Name(), rel.PerNode, Config{
		Algorithm:    AdaptiveTwoPhase,
		TableEntries: 128,
		Dial:         inj.Dialer(nil),
		WrapListener: inj.Listener,
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, got.Groups)
}

// TestChaosAcceptFailuresRecovered: transient accept failures are retried
// inside the formation budget, so the run still succeeds and the answer
// is exact.
func TestChaosAcceptFailuresRecovered(t *testing.T) {
	leakCheck(t)
	inj := faultnet.New(faultnet.Config{Seed: 7, AcceptFail: 0.5})
	rel := workload.Uniform(3, 9_000, 400, 4)
	got, err := runWatched(t, t.Name(), rel.PerNode, Config{
		Algorithm:    TwoPhase,
		WrapListener: inj.Listener,
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, got.Groups)
}

// TestChaosInjectedResetsFailCleanly: with resets firing on every dialed
// connection the cluster cannot finish, but it must fail with a structured
// error quickly and without leaking goroutines.
func TestChaosInjectedResetsFailCleanly(t *testing.T) {
	leakCheck(t)
	inj := faultnet.New(faultnet.Config{Seed: 9, Reset: 1})
	rel := workload.Uniform(2, 4_000, 100, 5)
	start := time.Now()
	_, err := runWatched(t, t.Name(), rel.PerNode, Config{
		Algorithm:   TwoPhase,
		Dial:        inj.Dialer(nil),
		DialTimeout: 500 * time.Millisecond,
		IOTimeout:   300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("cluster succeeded with Reset=1 on every dialed conn")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("reset chaos took %v to fail", elapsed)
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("error is not a *NodeError: %v", err)
	}
}

// TestChaosPartialWritesFailCleanly: truncated frames (a peer dying
// mid-send) must surface as structured errors, not hangs or panics.
func TestChaosPartialWritesFailCleanly(t *testing.T) {
	leakCheck(t)
	inj := faultnet.New(faultnet.Config{Seed: 11, PartialWrite: 0.3})
	rel := workload.Uniform(2, 20_000, 2_000, 6)
	start := time.Now()
	_, err := runWatched(t, t.Name(), rel.PerNode, Config{
		Algorithm:   Repartitioning,
		Dial:        inj.Dialer(nil),
		DialTimeout: 500 * time.Millisecond,
		IOTimeout:   300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("cluster succeeded with PartialWrite=0.3")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("partial-write chaos took %v to fail", elapsed)
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("error is not a *NodeError: %v", err)
	}
}

// TestChaosSurvivableChaosMatrix: low-probability faults that the
// hardening is designed to absorb (accept failures, latency) across all
// four algorithms — every run must either succeed with the exact answer
// or fail with a structured NodeError; nothing may hang or leak.
func TestChaosSurvivableChaosMatrix(t *testing.T) {
	leakCheck(t)
	rel := workload.Uniform(3, 9_000, 500, 7)
	for _, alg := range algorithms() {
		inj := faultnet.New(faultnet.Config{
			Seed:       int64(100 + alg),
			AcceptFail: 0.3,
			Latency:    100 * time.Microsecond,
		})
		got, err := runWatched(t, fmt.Sprintf("%s %v", t.Name(), alg), rel.PerNode, Config{
			Algorithm:    alg,
			TableEntries: 256,
			Dial:         inj.Dialer(nil),
			WrapListener: inj.Listener,
			DialTimeout:  2 * time.Second,
			IOTimeout:    2 * time.Second,
		})
		if err != nil {
			var ne *NodeError
			if !errors.As(err, &ne) {
				t.Fatalf("%v: unstructured error: %v", alg, err)
			}
			continue
		}
		verify(t, rel, got.Groups)
	}
}

func TestNodeErrorFormatting(t *testing.T) {
	cause := errors.New("boom")
	e := &NodeError{NodeID: 2, Peer: 5, Phase: PhaseRead, Err: cause}
	if !strings.Contains(e.Error(), "node 2") || !strings.Contains(e.Error(), "peer 5") ||
		!strings.Contains(e.Error(), "read") {
		t.Errorf("Error() = %q", e.Error())
	}
	if !errors.Is(e, cause) {
		t.Error("Unwrap does not reach the cause")
	}
	anon := &NodeError{NodeID: 1, Peer: -1, Phase: PhaseAccept, Err: cause}
	if strings.Contains(anon.Error(), "peer") {
		t.Errorf("anonymous peer printed: %q", anon.Error())
	}
	if nodeErr(0, 0, PhaseRead, nil) != nil {
		t.Error("nodeErr(nil) != nil")
	}
	if isTemporary(cause) {
		t.Error("plain error reported temporary")
	}
	if !isTemporary(faultnet.ErrInjectedAcceptFailure) {
		t.Error("injected accept failure not temporary")
	}
	// The tolerant-mode phases format like the formation ones.
	merge := &NodeError{NodeID: 0, Peer: 3, Phase: PhaseMerge, Err: cause}
	if !strings.Contains(merge.Error(), "merge peer 3") {
		t.Errorf("merge error = %q", merge.Error())
	}
	hb := nodeErr(4, 0, PhaseHeartbeat, ErrEvicted)
	if !strings.Contains(hb.Error(), "heartbeat") || !strings.Contains(hb.Error(), "evicted") {
		t.Errorf("eviction error = %q", hb.Error())
	}
	if !errors.Is(hb, ErrEvicted) {
		t.Error("eviction error does not unwrap to ErrEvicted")
	}
	var ne *NodeError
	if !errors.As(hb, &ne) || ne.Phase != PhaseHeartbeat {
		t.Errorf("eviction error does not recover as *NodeError: %v", hb)
	}
	// An injected crash is permanent, never a retryable accept hiccup.
	if isTemporary(faultnet.ErrInjectedCrash) {
		t.Error("injected crash reported temporary")
	}
}

// mixedPeer plays node 1 of a two-node cluster around the fail-fast node
// listening on ln0: it takes node 0's connection, dials back with hello,
// writes frames, and then holds both connections open, so whatever node 0
// reports came over the back connection.
func mixedPeer(t *testing.T, ln0 net.Listener, hello int, frames func(*bufio.Writer)) net.Listener {
	t.Helper()
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	return sabotagePeer(t, nil, false, func(conn net.Conn) {
		defer conn.Close()
		readHello(conn, 2, false)
		back, err := net.Dial("tcp", ln0.Addr().String())
		if err != nil {
			return
		}
		defer back.Close()
		bw := bufio.NewWriter(back)
		writeHello(bw, hello)
		frames(bw)
		bw.Flush()
		<-hold
	})
}

// One hello check serves both accept loops: a peer of the other mode, or
// one naming a node outside the cluster, fails a fail-fast node's
// handshake with a hello error and is an unidentified dead connection to
// a tolerant node.
func TestMixedModeHelloRejected(t *testing.T) {
	leakCheck(t)
	for _, hello := range []int{helloTolerantFlag | 1, 7} {
		ln0, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fake := mixedPeer(t, ln0, hello, func(*bufio.Writer) {})
		ne := runVictim(t, ln0, chaosConfig([]string{ln0.Addr().String(), fake.Addr().String()}), 3*time.Second)
		if ne.Phase != PhaseHello || ne.Peer != -1 {
			t.Errorf("hello %#x on a fail-fast node: phase %q peer %d, want hello from an unidentified peer", hello, ne.Phase, ne.Peer)
		}
	}
	for _, hello := range []int{1, helloTolerantFlag | 7} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{ID: 0, Addrs: []string{"a", "b", "c"}, Tolerate: true}
		nd := newTnode(ln, cfg.withDefaults(), nil)
		a, b := net.Pipe()
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			nd.serve(b)
		}()
		writeHello(a, hello)
		if ev := <-nd.events; ev.typ != evReadErr || ev.peer != -1 || ev.err == nil {
			t.Errorf("hello %#x on a tolerant node: event %+v, want a read error from an unidentified peer", hello, ev)
		}
		<-exited
		if _, err := a.Read(make([]byte, 1)); err == nil {
			t.Errorf("hello %#x on a tolerant node: connection left open", hello)
		}
		a.Close()
		ln.Close()
	}
}

// With one header a tolerant control frame decodes cleanly on a fail-fast
// node; its merge loop must refuse it instead of dropping it.
func TestFailFastRejectsHeartbeat(t *testing.T) {
	leakCheck(t)
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fake := mixedPeer(t, ln0, 1, func(bw *bufio.Writer) { writeControl(bw, frameHeartbeat, 1, 0, 500) })
	ne := runVictim(t, ln0, chaosConfig([]string{ln0.Addr().String(), fake.Addr().String()}), 3*time.Second)
	if ne.Phase != PhaseMerge || !strings.Contains(ne.Err.Error(), "unexpected frame kind") {
		t.Errorf("heartbeat on a fail-fast node: %v, want a merge error", ne)
	}
}
