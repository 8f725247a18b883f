package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"parallelagg/internal/dist"
)

// reserveAddrs binds n loopback listeners and hooks run's listen so
// each node takes the listener that reserved its address. No reserved
// port is released before its node binds it: a released port can be
// taken by another test process's node, which a node of this test would
// then dial and fold frames with.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	var mu sync.Mutex
	reserved := make(map[string]net.Listener, n)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		reserved[addrs[i]] = ln
	}
	listen = func(network, addr string) (net.Listener, error) {
		mu.Lock()
		defer mu.Unlock()
		ln, ok := reserved[addr]
		if !ok {
			return nil, fmt.Errorf("address %s was not reserved, or was taken twice", addr)
		}
		delete(reserved, addr)
		return ln, nil
	}
	t.Cleanup(func() {
		listen = net.Listen
		for _, ln := range reserved {
			ln.Close()
		}
	})
	return addrs
}

// refusingAddr reserves a loopback port with a socket that is bound but
// never listens, for as long as the test runs: a dial to it is refused,
// and no other process can take the port meanwhile.
func refusingAddr(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
}

// scrape fetches /metrics and parses the Prometheus text exposition
// into series → value, failing the test on any malformed line.
func scrape(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("scrape: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]int64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("malformed comment line: %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("non-integer sample %q in line %q: %v", val, line, err)
		}
		if _, dup := series[name]; dup {
			t.Fatalf("duplicate series %q", name)
		}
		series[name] = v
	}
	return series
}

// TestThreeNodeScrape runs a full 3-node distributed query in-process
// with node 0 serving -metrics-addr, scrapes the endpoint twice, and
// checks the acceptance contract: Prometheus-parseable output carrying
// per-peer byte counters, the hash-occupancy gauge, and the
// phase-switch counter, with every counter monotonically non-decreasing
// across scrapes.
func TestThreeNodeScrape(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	addrList := strings.Join(addrs, ",")

	ready := make(chan string, 1)
	metricsReady = func(addr string) { ready <- addr }
	defer func() { metricsReady = nil }()

	common := []string{
		"-addrs", addrList,
		"-alg", "a2p",
		"-tuples", "30000",
		"-groups", "6000",
		"-seed", "7",
		"-mem", "100", // far below 6000 groups, so the adaptive switch fires
		"-dial-timeout", "10s",
		"-io-timeout", "10s",
	}
	var wg sync.WaitGroup
	var peersDone sync.WaitGroup
	codes := make([]int, 3)
	for i := 1; i < 3; i++ {
		wg.Add(1)
		peersDone.Add(1)
		go func(i int) {
			defer wg.Done()
			defer peersDone.Done()
			args := append([]string{"-id", fmt.Sprint(i)}, common...)
			codes[i] = run(args, io.Discard, io.Discard)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		args := append([]string{
			"-id", "0",
			"-metrics-addr", "127.0.0.1:0",
			"-metrics-linger", "2s",
		}, common...)
		codes[0] = run(args, io.Discard, io.Discard)
	}()

	var metricsAddr string
	select {
	case metricsAddr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("metrics endpoint never came up")
	}

	// The endpoint serves before RunNode registers the node's metric
	// families, so a scrape that wins that race is empty: poll.
	var first map[string]int64
	for deadline := time.Now().Add(10 * time.Second); len(first) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("scrape returned no samples")
		}
		first = scrape(t, metricsAddr)
	}

	// Wait until the other nodes' queries complete; the distributed
	// barrier means node 0's query is finished too, and its linger
	// keeps the endpoint alive for the second scrape.
	peersDone.Wait()
	second := scrape(t, metricsAddr)

	for name, v1 := range first {
		if !strings.Contains(name, "_total") {
			continue // gauges may move either way
		}
		v2, ok := second[name]
		if !ok {
			t.Errorf("counter %s vanished between scrapes", name)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %d -> %d", name, v1, v2)
		}
	}

	wantSubstr := []string{
		`dist_bytes_sent_total{node="0",peer="1"}`,
		`dist_bytes_sent_total{node="0",peer="2"}`,
		`dist_bytes_recv_total{node="0",peer="1"}`,
		`dist_frames_sent_total{node="0",peer="1",kind="partial"}`,
		`dist_hash_occupancy_permille{node="0"}`,
		`dist_phase_switch_total{node="0",to="repart"}`,
	}
	for _, want := range wantSubstr {
		if _, ok := second[want]; !ok {
			t.Errorf("final scrape is missing series %s", want)
		}
	}
	for _, name := range []string{
		`dist_bytes_sent_total{node="0",peer="1"}`,
		`dist_bytes_recv_total{node="0",peer="1"}`,
	} {
		if v := second[name]; v <= 0 {
			t.Errorf("%s = %d, want > 0", name, v)
		}
	}

	wg.Wait()
	for i, c := range codes {
		if c != 0 {
			t.Errorf("node %d exited with code %d", i, c)
		}
	}
}

// TestExitCodeMapping pins the phase -> exit-code contract that
// orchestrators depend on. Eviction wins over its carrier phase.
func TestExitCodeMapping(t *testing.T) {
	mk := func(p dist.Phase, err error) error {
		return &dist.NodeError{NodeID: 1, Peer: 2, Phase: p, Err: err}
	}
	plain := errors.New("boom")
	cases := []struct {
		err  error
		want int
	}{
		{plain, exitLocal},
		{mk(dist.PhaseDial, plain), exitDial},
		{mk(dist.PhaseHello, plain), exitHello},
		{mk(dist.PhaseAccept, plain), exitAccept},
		{mk(dist.PhaseRead, plain), exitRead},
		{mk(dist.PhaseWrite, plain), exitWrite},
		{mk(dist.PhaseMerge, plain), exitMerge},
		{mk(dist.PhaseHeartbeat, plain), exitHeartbeat},
		{mk(dist.PhaseHeartbeat, dist.ErrEvicted), exitEvicted},
		{dist.ErrEvicted, exitEvicted},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestJSONErrorsOnDialFailure runs a node against a cluster that never
// forms and checks both the dial exit code and the one-line JSON error
// record on stderr.
func TestJSONErrorsOnDialFailure(t *testing.T) {
	addrs := append(reserveAddrs(t, 1), refusingAddr(t)) // peer 1 never starts
	var stderr bytes.Buffer
	code := run([]string{
		"-id", "0",
		"-addrs", strings.Join(addrs, ","),
		"-tuples", "100", "-groups", "10",
		"-dial-timeout", "300ms",
		"-io-timeout", "1s",
		"-json-errors",
	}, io.Discard, &stderr)
	if code != exitDial {
		t.Fatalf("exit code %d, want %d (dial)\nstderr: %s", code, exitDial, stderr.String())
	}
	line := strings.TrimSpace(stderr.String())
	if strings.ContainsRune(line, '\n') {
		t.Fatalf("want exactly one JSON line, got %q", line)
	}
	var rec errorRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("stderr is not JSON: %v\n%q", err, line)
	}
	if rec.Node != 0 || rec.Phase != string(dist.PhaseDial) || rec.Err == "" || rec.Evicted {
		t.Errorf("record = %+v", rec)
	}
	if rec.Peer != 1 {
		t.Errorf("record blames peer %d, want 1", rec.Peer)
	}
}

// TestTolerantCLISurvivesCrash runs a 3-node cluster through the real
// command-line entry point with -tolerate, crashing node 2 via the
// -chaos spec. The survivors must finish with exit 0 and report the
// dead peer; the victim must exit with a non-zero protocol code.
func TestTolerantCLISurvivesCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node TCP test")
	}
	addrs := reserveAddrs(t, 3)
	common := []string{
		"-addrs", strings.Join(addrs, ","),
		"-alg", "2p",
		"-tuples", "8000",
		"-groups", "500",
		"-seed", "11",
		"-tolerate",
		"-heartbeat", "40ms",
		"-dial-timeout", "5s",
		"-io-timeout", "800ms",
	}
	var wg sync.WaitGroup
	codes := make([]int, 3)
	outs := make([]bytes.Buffer, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			args := append([]string{"-id", fmt.Sprint(i)}, common...)
			if i == 2 {
				args = append(args, "-chaos", "killwrites=3", "-json-errors")
			}
			codes[i] = run(args, &outs[i], &outs[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < 2; i++ {
		if codes[i] != exitOK {
			t.Errorf("survivor %d exited %d\n%s", i, codes[i], outs[i].String())
		}
		if !strings.Contains(outs[i].String(), "survived dead peers [2]") {
			t.Errorf("survivor %d did not report the dead peer:\n%s", i, outs[i].String())
		}
	}
	if codes[2] == exitOK || codes[2] == exitUsage {
		t.Errorf("victim exited %d, want a protocol failure code", codes[2])
	}
}

// TestBadFlagsExitNonzero covers the argument-validation paths without
// opening any sockets.
func TestBadFlagsExitNonzero(t *testing.T) {
	cases := [][]string{
		{}, // missing -addrs
		{"-addrs", "x", "-alg", "nope"},
		{"-addrs", "a,b", "-id", "5"},
		{"-addrs", "a,b", "-chaos", "latency=oops"},
	}
	for _, args := range cases {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
