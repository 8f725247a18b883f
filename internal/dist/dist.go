// Package dist executes the parallel aggregation algorithms over real TCP
// connections — the modern equivalent of the paper's Section 5
// implementation, which ran on eight workstations connected by Ethernet
// under PVM. Each node is a full protocol participant: it serves a
// listener, dials every other node, exchanges length-delimited binary
// frames (the same record encodings the simulator's pages use), aggregates
// its partition into a bounded aggtable.Table, and merges the groups that
// hash to it into an unbounded one. In either mode a node's own share of
// the exchange goes to its control loop in memory; only other nodes'
// shares cross a socket, each connection written through one peer
// (wire.go).
//
// Both modes are one node program (recover.go) speaking one protocol
// (wire.go): every frame has the same 12-byte header, tagged with the
// (origin, epoch) stream the tolerant mode's recovery needs, and the
// connection's hello tells the modes apart. Both run internal/kernel's scan
// loop (scan.go) and one control loop that consumes every frame; a
// fail-fast node is a tolerant one with recovery switched off.
//
// Unlike the PVM original, where a slow or dead peer hung the whole query,
// the exchange here is failure-safe: every frame read and write carries a
// deadline (Config.IOTimeout), dialing retries with exponential backoff
// and jitter, transient accept failures are retried, and in fail-fast mode
// the first peer error ends the control loop and cancels the scan and
// accept sides cooperatively — RunNode returns a structured *NodeError
// naming the peer and protocol phase, with no leaked goroutines. See the
// "Failure semantics" sections of README.md and DESIGN.md, and
// internal/faultnet for the chaos harness that tests all of it.
//
// Nodes can run in one process (the in-process Run launcher used by tests
// and examples) or as separate OS processes given each other's addresses
// (RunNode with a pre-bound listener) — the wire protocol is identical.
package dist

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/kernel"
	"parallelagg/internal/obs"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
)

// Algorithm selects the distributed strategy, one of internal/kernel's.
// The Sampling front-end needs a coordinator and is left to the simulator;
// the other four cover the paper's implementation study, including Adaptive
// Repartitioning's end-of-phase broadcast (a control frame on every peer).
type Algorithm int

const (
	// TwoPhase: aggregate locally, exchange partials, merge in parallel.
	TwoPhase = Algorithm(kernel.TwoPhase)
	// Repartitioning: exchange raw tuples, aggregate owned groups.
	Repartitioning = Algorithm(kernel.Repartitioning)
	// AdaptiveTwoPhase: start as TwoPhase, switch to raw repartitioning
	// when the local table hits Config.TableEntries.
	AdaptiveTwoPhase = Algorithm(kernel.AdaptiveTwoPhase)
	// AdaptiveRepartitioning: start as Repartitioning; a node whose first
	// TableEntries/2 tuples project to groups its table holds broadcasts
	// an end-of-phase frame and every node falls back to AdaptiveTwoPhase.
	AdaptiveRepartitioning = Algorithm(kernel.AdaptiveRepartitioning)
)

// String returns the paper's abbreviation.
func (a Algorithm) String() string { return kernel.Algorithm(a).String() }

// Config describes one node's view of the cluster.
type Config struct {
	// ID is this node's index; Addrs lists every node's listen address,
	// Addrs[ID] being our own.
	ID    int
	Addrs []string

	Algorithm Algorithm

	// TableEntries bounds the local hash table (0 = unbounded; the
	// adaptive switch then never fires). It is an allocation as well as
	// a cap: a node that folds allocates its scan table at the bound —
	// the least power of two of slots that holds TableEntries below 13/16
	// load, 41 B a slot (1.3 MB at 16,384) — from a process-wide pool the
	// table goes back to when the scan ends, so later runs in the process
	// reuse it. It does not bound the merge side: a node's merge table
	// holds every group of its ranges, 41 B a slot, reserved from the
	// switch's projection (DESIGN.md §14).
	TableEntries int

	// Batch is the most records a data frame carries: raw tuples ship
	// when a destination's batch fills, a flushed table's partials in
	// batches of this size. Default 1024; at most 1<<20 (the wire limit).
	Batch int

	// DialTimeout bounds the whole cluster-formation phase: dialing every
	// peer (with exponential backoff + jitter between attempts) and
	// retrying transient accept failures. Default 5s.
	DialTimeout time.Duration

	// IOTimeout bounds every frame read and write on established
	// connections. A peer silent for longer than IOTimeout — dead,
	// hanging, or not draining its socket — fails that operation with a
	// deadline error and aborts the node. Default 30s; negative disables
	// deadlines entirely (the pre-hardening behaviour).
	IOTimeout time.Duration

	// Seed derives this node's backoff-jitter RNG (mixed with ID, so
	// nodes sharing a template Config don't sleep in lockstep). Runs
	// with the same Seed and ID draw identical jitter sequences, which
	// keeps chaos scenarios replayable; zero is a valid fixed default.
	Seed int64

	// Dial, if set, replaces net.DialTimeout for outgoing connections.
	// Fault injection (internal/faultnet's Injector.Dialer) and tests
	// hook here.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)

	// WrapListener, if set, wraps the node's listener before the exchange
	// starts — the accept-side fault-injection hook, applied by RunNode
	// and therefore also by the in-process Run/RunConfigured launchers.
	WrapListener func(net.Listener) net.Listener

	// Tolerate enables the fault-tolerant protocol (DESIGN.md §11): node
	// 0 supervises per-peer liveness via heartbeat frames, a crashed,
	// hung, or partitioned peer's duties are reassigned to a survivor
	// under a fresh epoch, and the merge side discards stale frames so
	// every tuple folds exactly once. False (the default) runs the same
	// node loop with recovery off, fail-fast: the first peer fault aborts
	// the query with a *NodeError.
	Tolerate bool

	// PartitionSource returns any node's input partition so a surviving
	// peer can re-execute a lost one. Required when Tolerate is set.
	// RunConfigured fills it from the in-memory partitions; cmd/distnode
	// uses the deterministic generator (every node can regenerate every
	// partition from the shared seed).
	PartitionSource func(node int) []tuple.Tuple

	// HeartbeatEvery is the liveness beacon interval in tolerant mode
	// (default 250ms). SuspectAfter and DeadAfter are the staleness
	// thresholds at which the supervisor classifies a peer suspect
	// (default 4×HeartbeatEvery) and dead (default 10×HeartbeatEvery).
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	DeadAfter      time.Duration

	// SpeculateFactor k enables straggler mitigation in tolerant mode: a
	// peer whose scan progress lags more than k× behind the live median
	// (once the median passes 80%) has its partition speculatively
	// re-executed on a survivor; the first complete attempt wins at each
	// receiver. 0 (default) disables speculation.
	SpeculateFactor int

	// Obs, when non-nil, receives wire-level metrics: frames and bytes
	// per peer, dial retries and backoff time, deadline hits, hash-table
	// occupancy and adaptive switches. Safe to share one registry across
	// the nodes of a cluster — every family carries a node label.
	Obs *obs.Registry

	// Tracer, when non-nil, records dial/scan/merge spans for this node.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 1024
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 30 * time.Second
	} else if c.IOTimeout < 0 {
		c.IOTimeout = 0
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4 * c.HeartbeatEvery
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * c.HeartbeatEvery
	}
	return c
}

// NodeResult is one node's share of the answer.
type NodeResult struct {
	Groups   map[tuple.Key]tuple.AggState
	Switched bool // the adaptive switch fired on this node

	// table is the node's merge table, which RunNode assembles into Groups
	// and RunConfigured into the cluster's, releasing it.
	table *aggtable.Table

	// RawSent and PartialsSent count the records this node shipped; they
	// are the distributed analogue of the simulator's network metrics.
	RawSent      int64
	PartialsSent int64

	// Ranges lists the merge ranges this node ended up owning, which Groups
	// covers: its own, plus in tolerant mode any taken over from dead peers
	// (in fail-fast mode it is always [ID]). DeadPeers lists the nodes
	// declared dead during the run, always none in fail-fast mode.
	Ranges    []int
	DeadPeers []int
}

// canceller is a node's cooperative cancellation, in either mode: the
// first cancel closes done, the listener and every connection registered
// with add. Closing the connections bounds how long any goroutine can stay
// parked in a read or write; done covers the channel operations.
type canceller struct {
	ln   net.Listener
	done chan struct{}

	mu sync.Mutex
	//aggvet:guard mu
	closed bool
	//aggvet:guard mu
	conns []net.Conn
}

func newCanceller(ln net.Listener) *canceller {
	return &canceller{ln: ln, done: make(chan struct{})}
}

// add registers c, or closes it immediately if cancellation already ran.
func (t *canceller) add(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.Close()
		return false
	}
	t.conns = append(t.conns, c)
	return true
}

func (t *canceller) cancel() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	close(t.done)
	t.ln.Close()
	for _, c := range t.conns {
		c.Close()
	}
	t.conns = nil
}

// RunNode executes one node's role: it must be called with a listener
// already bound to cfg.Addrs[cfg.ID] (so peers can connect regardless of
// start order). It returns the final aggregate states of the groups this
// node owns. It closes the listener before returning, unless it rejects
// the config: a rejected config leaves the listener open.
//
// In fail-fast mode, on any peer failure — dial exhaustion, reset,
// deadline expiry, protocol garbage — RunNode cancels all sides of the
// exchange, waits for every goroutine it started, and returns a *NodeError
// identifying the peer and phase. It never blocks longer than roughly
// IOTimeout past the failure and never leaks goroutines.
func RunNode(ln net.Listener, cfg Config, part []tuple.Tuple) (*NodeResult, error) {
	res, err := runNode(ln, cfg, part)
	if err != nil {
		return nil, err
	}
	if res.Groups, err = kernel.Assemble([]*aggtable.Table{res.table}, 0); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return res, nil
}

// runNode is RunNode up to the merge table: the result's Groups is unset.
func runNode(ln net.Listener, cfg Config, part []tuple.Tuple) (*NodeResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(len(cfg.Addrs)); err != nil {
		return nil, err
	}
	if cfg.ID < 0 || cfg.ID >= len(cfg.Addrs) {
		return nil, fmt.Errorf("dist: node id %d out of range [0,%d)", cfg.ID, len(cfg.Addrs))
	}
	if cfg.WrapListener != nil {
		ln = cfg.WrapListener(ln)
	}
	return newTnode(ln, cfg, part).run()
}

// check rejects a config that no node of an n-node cluster can run.
func (c Config) check(n int) error {
	switch {
	case n == 0:
		return fmt.Errorf("dist: empty address list")
	case c.Batch > maxFrameRecords:
		return fmt.Errorf("dist: Batch %d exceeds the %d-record wire limit", c.Batch, maxFrameRecords)
	case c.Tolerate && n > maxOrigins:
		return fmt.Errorf("dist: Tolerate supports at most %d nodes (a frame names its origin in one byte), got %d", maxOrigins, n)
	case c.Tolerate && c.PartitionSource == nil:
		return fmt.Errorf("dist: Tolerate requires PartitionSource (recovery must be able to re-execute a lost partition)")
	}
	return nil
}

// checkRouting is the post-merge sanity check of both modes: every group
// in a node's merge table must belong to a range the node owns. It
// reports the smallest offending key so the error is the same on every
// run.
func checkRouting(id int, merged *aggtable.Table, owner func(tuple.Key) int) error {
	misrouted := false
	var badKey tuple.Key
	merged.Each(func(k tuple.Key, _ tuple.AggState) {
		if owner(k) != id && (!misrouted || k < badKey) {
			misrouted, badKey = true, k
		}
	})
	if !misrouted {
		return nil
	}
	return nodeErr(id, owner(badKey), PhaseMerge,
		fmt.Errorf("received group %d owned by node %d", badKey, owner(badKey)))
}

// acceptLoop is the one accept loop of both modes. It accepts until limit
// connections have arrived (a negative limit: until the listener closes),
// registers each with c so cancellation closes it, and serves it on a
// goroutine of its own in wg. A transient accept failure is retried
// after a millisecond until retryUntil (zero: for as long as the node
// runs). It returns how many connections arrived and the error that ended
// it, nil when it reached limit or the node was cancelled.
func acceptLoop(c *canceller, limit int, retryUntil time.Time, wg *sync.WaitGroup, serve func(net.Conn)) (int, error) {
	accepted := 0
	for accepted != limit {
		conn, err := c.ln.Accept()
		if err != nil {
			if isTemporary(err) && (retryUntil.IsZero() || time.Now().Before(retryUntil)) {
				select {
				case <-time.After(time.Millisecond):
					continue
				case <-c.done:
					return accepted, nil
				}
			}
			return accepted, err
		}
		if ok := c.add(conn); !ok {
			return accepted, nil
		}
		accepted++
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(conn)
		}()
	}
	return accepted, nil
}

// readConn is the one inbound reader of both modes. It reads conn's hello,
// which must be of this node's mode and name a node of the cluster, then
// frames, arming the read deadline before every read, and hands sink each
// of them (the hello as a frameHello pseudo frame) until sink returns
// false. A failed read ends it with the peer's id (-1 before the hello),
// the phase and the error; a stop by sink returns a nil error.
func readConn(conn net.Conn, cfg Config, pool rawPool, m *metrics, sink func(src int, f frame) bool) (int, Phase, error) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 1<<16)
	arm := func() {
		if cfg.IOTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(cfg.IOTimeout))
		}
	}
	arm()
	src, err := readHello(r, len(cfg.Addrs), cfg.Tolerate)
	if err != nil {
		m.ioError(PhaseHello, err)
		return -1, PhaseHello, err
	}
	m.recv(src, frameHello, 0)
	for f := (frame{kind: frameHello}); sink(src, f); {
		arm()
		if f, err = readFrame(r, pool); err != nil {
			m.ioError(PhaseRead, err)
			return src, PhaseRead, err
		}
		m.recv(src, f.kind, len(f.raw)+len(f.partials))
	}
	return src, PhaseRead, nil
}

// jitterRand builds the per-node jitter source for dial backoff. Each
// node mixes its ID into the seed (golden-ratio multiplier) so a
// cluster built from one template Config still desynchronizes, while
// any (Seed, ID) pair replays the exact same sleep sequence.
func jitterRand(cfg Config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed ^ (int64(cfg.ID)+1)*0x9E3779B9))
}

// dialPeer connects to node j, retrying with exponential backoff and
// jitter (drawn from rng) until deadline, and registers the connection
// with c so cancellation closes it. Both modes dial through it.
func dialPeer(cfg Config, j int, deadline time.Time, rng *rand.Rand, c *canceller, m *metrics) (net.Conn, error) {
	dial := cfg.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	backoff := 2 * time.Millisecond
	for {
		conn, err := dial("tcp", cfg.Addrs[j], max(min(time.Until(deadline), time.Second), 50*time.Millisecond))
		if err != nil {
			if !time.Now().Before(deadline) {
				return nil, nodeErr(cfg.ID, j, PhaseDial, err)
			}
			m.dialRetry(j)
			// Full jitter on a doubling base, so a cluster of nodes
			// restarting together doesn't hammer a recovering peer in
			// lockstep.
			sleep := min(backoff/2+time.Duration(rng.Int63n(int64(backoff))), time.Until(deadline))
			m.backoff(sleep)
			time.Sleep(sleep)
			if backoff < 250*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		if ok := c.add(conn); !ok {
			return nil, nodeErr(cfg.ID, j, PhaseDial, net.ErrClosed)
		}
		return conn, nil
	}
}

// ClusterResult is the combined outcome of an in-process cluster run.
type ClusterResult struct {
	Groups   map[tuple.Key]tuple.AggState
	Switched int   // nodes that changed strategy mid-query
	Dead     []int // nodes declared dead during a tolerant run
}

// Run launches an n-node cluster on loopback TCP inside this process, one
// goroutine per node, runs the query, and returns the combined result plus
// how many nodes switched strategy. It is the in-process analogue of
// starting n RunNode processes.
func Run(parts [][]tuple.Tuple, alg Algorithm, tableEntries int) (map[tuple.Key]tuple.AggState, int, error) {
	res, err := RunConfigured(parts, Config{Algorithm: alg, TableEntries: tableEntries})
	if err != nil {
		return nil, 0, err
	}
	return res.Groups, res.Switched, nil
}

// RunConfigured is Run with full per-node configuration control: template
// is copied to every node with ID and Addrs filled in. Fault-injection
// hooks on the template (Dial, WrapListener) apply to every node, so chaos
// scenarios run in-process exactly as they would across machines.
func RunConfigured(parts [][]tuple.Tuple, template Config) (*ClusterResult, error) {
	n := len(parts)
	if n == 0 {
		return &ClusterResult{Groups: map[tuple.Key]tuple.AggState{}}, nil
	}
	if template.Tolerate && template.PartitionSource == nil {
		template.PartitionSource = func(node int) []tuple.Tuple {
			if node < 0 || node >= len(parts) {
				return nil
			}
			return parts[node]
		}
	}
	if err := template.withDefaults().check(n); err != nil {
		return nil, err
	}
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ln := range listeners[:i] {
				ln.Close()
			}
			return nil, fmt.Errorf("dist: listen: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	results := make([]*NodeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			cfg := template
			cfg.ID = i
			cfg.Addrs = addrs
			results[i], errs[i] = runNode(listeners[i], cfg, parts[i])
		}()
	}
	wg.Wait()
	out := &ClusterResult{}
	dead := make(map[int]bool)
	if template.Tolerate {
		// Tolerant combine: the supervisor (node 0) is the authority on who
		// died. Its result must exist; errors from dead-declared nodes are
		// expected (killed, evicted, or aborted mid-fault) and their duties
		// live on in a survivor's Groups. Every node NOT declared dead must
		// still succeed.
		if errs[0] != nil {
			return nil, fmt.Errorf("dist: node 0: %w", errs[0])
		}
		for _, d := range results[0].DeadPeers {
			dead[d] = true
			out.Dead = append(out.Dead, d)
			results[d] = nil
		}
	}
	for i, err := range errs {
		if err != nil && !dead[i] {
			return nil, fmt.Errorf("dist: node %d: %w", i, err)
		}
	}
	tables := make([]*aggtable.Table, n)
	for i, r := range results {
		if r != nil {
			tables[i] = r.table
			if r.Switched {
				out.Switched++
			}
		}
	}
	var err error
	if out.Groups, err = kernel.Assemble(tables, 0); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return out, nil
}
