package dist

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parallelagg/internal/kernel"
	"parallelagg/internal/tuple"
)

// This file is the node loop of both modes. A fail-fast node is the
// tolerant one with recovery off: no supervisor, heartbeats or recovery
// jobs, its streams fold straight into its final table, it is finished once
// its scan is done and its n streams have ended, and the first fault of any
// kind ends it with a *NodeError (the policies sit at the Config.Tolerate
// checks below). With recovery on (Config.Tolerate; DESIGN.md §11) a query
// completes correctly despite peer crashes, hangs, and one-way partitions,
// and produces the exact same answer as the fault-free run:
//
//   - Node 0 is the query supervisor (a documented single point of
//     failure). Every node heartbeats on every outgoing connection, and
//     the supervisor beats itself at each tick; it classifies peers
//     live/suspect/dead from heartbeat staleness and peer complaints
//     (supervisor.go).
//
//   - A node connects to its n−1 peers only. Its own share of every
//     stream goes through its self slot (selfSlot): the scan goroutine
//     hands the frames to the control loop as events. What the control
//     loop would send itself — the supervisor's assign to node 0, node
//     0's done — it applies in place, because a post to its own events
//     channel would never return once the channel is full.
//
//   - When a node d is declared dead, ALL of its duties — the input
//     partitions assigned to it and the merge ranges it owns — move to a
//     surviving worker under a fresh epoch E. Every data frame carries an
//     (origin partition, epoch) stream tag; the merge side accounts for
//     data in per-stream slots and discards zombie streams, so every
//     logical tuple folds into the final answer exactly once per
//     receiver-side slot no matter how attempts overlap.
//
//   - Stragglers (progress k× behind the live median) are handled with
//     the same epoch machinery: the supervisor broadcasts a speculative
//     assignment and the first complete attempt wins at each receiver.
//
//   - Recovery re-execution aggregates into a bounded table; at the bound
//     it degrades gracefully to raw shipping (A-2P → Rep for the job's
//     remainder) instead of aborting.
//
// Concurrency discipline, in either mode: a single control-loop goroutine
// owns every piece of merge/duty state (slots, stages, owner tables, the
// supervisor state machine). Readers, the scan/job goroutine, and the
// heartbeat ticker only communicate with it through the events channel,
// the control loop never posts to that channel, and it is the only
// goroutine that enqueues to or closes the jobs channel.

// Event types delivered to the control loop.
const (
	evFrame      = iota // a frame from an inbound connection, or a frame or reservation from the self slot
	evReadErr           // an inbound connection died (peer and phase as its reader saw them)
	evComplaint         // a local I/O failure toward a peer (scan/heartbeat side)
	evScanDone          // the primary scan finished
	evJobDone           // one queued recovery job finished
	evTick              // supervisor clock tick (node 0 only)
	evFatal             // unrecoverable local failure
	evAcceptDone        // the accept loop exited; peer carries the conn count
)

type tevent struct {
	typ     int
	peer    int
	phase   Phase
	err     error
	f       frame
	conn    net.Conn // the inbound connection a frame came on (nil: the self slot)
	reserve int      // a self-slot reservation target for stream f.stream()
}

// tjob is one unit of recovery re-execution, run on the scan goroutine
// after the primary scan completes.
//
// ranges == nil is a re-scan: re-execute partition `partition` end to end,
// routing every slice by the current owner table (dest must be -1).
// ranges != nil is a re-extract: replay only the keys whose merge range is
// in `ranges`, shipping everything to `dest` (the takeover worker).
// Either way all frames are tagged (partition, epoch).
type tjob struct {
	partition int
	epoch     int
	ranges    []bool
	dest      int
}

// slotKey identifies one receiver-side unit of exactly-once accounting:
// the contribution of input partition p to merge range r (a range this
// node owns).
type slotKey struct{ r, p int }

// slot tracks whether range r has folded partition p's data, and which
// re-execution epochs are acceptable sources for it. A slot is satisfied
// by the first complete stream whose epoch is acceptable; everything else
// for the same (r, p) is discarded as a zombie or speculative loser.
type slot struct {
	sat        bool
	acceptable map[int]bool
}

// stage buffers one in-flight stream (origin, epoch) before its EOS,
// pre-aggregated per key in a Merge of its own, so staging is bounded by
// the group count rather than the input size, and counts its frames.
type stage struct {
	*kernel.Merge
	frames int64
}

// errPeerDown marks a write skipped because the peer was already marked
// down; it is never a fresh failure discovery.
var errPeerDown = errors.New("dist: peer marked down")

// tpeer is one outgoing connection, or the node's own self slot: a peer
// behind a lock, shared by the scan, the heartbeat ticker and the control
// loop, that can be marked down (only ever in tolerant mode). A down peer's
// writes return errPeerDown and the data plane drops that destination's
// slices (the receiver-side slot algebra makes ship-vs-drop equally
// correct for a dead peer). markDown closes the connection without the
// lock, which a write blocked on that connection holds until its deadline,
// so the write fails promptly and the caller does not wait for it. The
// self entry is up from the start and only the scan goroutine writes to it.
type tpeer struct {
	id   int
	down atomic.Bool
	conn atomic.Value // out's net.Conn, published by install for markDown

	mu sync.Mutex
	//aggvet:guard mu
	out peer // its conn is nil until install
}

func (p *tpeer) markDown() {
	if p.down.Swap(true) {
		return
	}
	if c, ok := p.conn.Load().(net.Conn); ok {
		c.Close()
	}
}

// install arms the peer with a live connection (dial side). The peer stays
// down until sayHello has flushed the hello on it: a frame written ahead of
// the hello would be read as one and refused as the other mode's.
func (p *tpeer) install(conn net.Conn) {
	p.mu.Lock()
	p.out.conn, p.out.w = conn, bufio.NewWriterSize(conn, 1<<16)
	p.mu.Unlock()
	p.conn.Store(conn)
}

// sayHello writes and flushes node src's hello, of its mode, on the
// installed connection and only then marks the peer up, under the lock
// every write takes, so no frame can precede the hello.
func (p *tpeer) sayHello(src int, tolerant bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tolerant {
		src |= helloTolerantFlag
	}
	if err := p.out.writeHello(src); err != nil {
		p.out.conn.Close()
		return err
	}
	p.down.Store(false)
	return nil
}

// locked runs w on the peer's writer under its lock.
func (p *tpeer) locked(w func(*peer) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.write(w)
}

// write runs w on the held writer, or returns errPeerDown for a down peer;
// the lock is the caller's (locked takes it, tryControl TryLocks it).
//
//aggvet:holds p.mu
func (p *tpeer) write(w func(*peer) error) error {
	if p.down.Load() {
		return errPeerDown
	}
	return w(&p.out)
}

func (p *tpeer) control(kind frameKind, origin, epoch int, aux uint32) error {
	return p.locked(func(o *peer) error { return o.control(kind, streamID{origin: origin, epoch: epoch}, aux) })
}

// tryControl is control with TryLock: the heartbeat ticker uses it so a
// write blocked on one stuck peer cannot delay beacons to the others.
// Skipped rounds (peer down or lock busy) return silence: (nil, false).
func (p *tpeer) tryControl(kind frameKind, origin, epoch int, aux uint32) (error, bool) {
	if p.down.Load() || !p.mu.TryLock() {
		return nil, false
	}
	defer p.mu.Unlock()
	return p.write(func(o *peer) error { return o.control(kind, streamID{origin: origin, epoch: epoch}, aux) }), true
}

func (p *tpeer) writeRaw(s streamID, ts []tuple.Tuple) error {
	return p.locked(func(o *peer) error { return o.writeRaw(s, ts) })
}

func (p *tpeer) writePartials(s streamID, ps []tuple.Partial) error {
	return p.locked(func(o *peer) error { return o.writePartials(s, ps) })
}

// tnode is one node, of either mode. Fields below the "control-loop state"
// marker are owned exclusively by the control goroutine.
type tnode struct {
	cfg   Config
	id, n int
	part  []tuple.Tuple
	m     *metrics
	rng   *rand.Rand // dial jitter, drawn by the dialing goroutine only
	*canceller

	events chan tevent
	jobs   chan tjob
	peers  []*tpeer
	pool   rawPool // raw-record slices: readers take, the control loop returns

	ownerPtr atomic.Pointer[[]int] // routing snapshot shared with the scan side
	fallback atomic.Bool           // A-Rep end-of-phase flag
	scanned  atomic.Int64          // primary-scan progress (tuples), published once per Batch
	scanFlag atomic.Bool           // primary scan complete

	// Scan-goroutine-owned counters, read after it exits.
	rawSent, partialsSent int64
	switched              bool

	// The outcome control() leaves at exit, read after it.
	res *NodeResult
	err error

	// --- control-loop state ---
	// Every field below is owned by the control() goroutine: other
	// goroutines communicate through nd.events instead of touching
	// these directly. The //aggvet:owner tags make loopown enforce
	// that; the only sanctioned exceptions (construction in newTnode,
	// the supervisor handoff in run) carry rationaled allows.
	//
	//aggvet:owner control
	final *kernel.Merge
	//aggvet:owner control
	slots map[slotKey]*slot
	//aggvet:owner control
	stages map[streamID]*stage
	//aggvet:owner control
	pending map[streamID]bool // complete streams parked until their epoch's assign arrives
	//aggvet:owner control
	epochs map[int]bool // epochs whose assign this node has processed
	//aggvet:owner control
	owner []int // authoritative owner table (published via ownerPtr)
	//aggvet:owner control
	assignee []int // partition -> responsible node
	//aggvet:owner control
	deadPeers []bool
	//aggvet:owner control
	complained []bool
	//aggvet:owner control
	inbound map[int]net.Conn
	//aggvet:owner control
	helloFails int // inbound conns that died before identifying themselves
	//aggvet:owner control
	inboundDead int // inbound conns that died, identified or not
	//aggvet:owner control
	acceptedCap int // total conns the accept loop delivered (valid once closed)
	//aggvet:owner control
	acceptClosed bool // the accept loop exited; no new inbound will ever arrive
	//aggvet:owner control
	everHello bool // at least one inbound hello completed
	//aggvet:owner control
	queuedJobs int
	//aggvet:owner control
	scanFinished bool
	//aggvet:owner control
	eos int // streams ended, counted with recovery off
	//aggvet:owner control
	maxEpoch int
	//aggvet:owner control
	lastDoneSent int
	//aggvet:owner control
	sup *supervisor // node 0 only
	//aggvet:owner control
	finished bool
	//aggvet:owner control
	evicted bool
	//aggvet:owner control
	fatal error
}

// newTnode builds node cfg.ID over listener ln, which it closes on
// cancellation, to scan part.
func newTnode(ln net.Listener, cfg Config, part []tuple.Tuple) *tnode {
	n := len(cfg.Addrs)
	jobs := 0
	if cfg.Tolerate {
		// Room for every recovery job control can queue (n per assign),
		// as the scan goroutine drains them only after its primary scan.
		jobs = 2*n*n + 8
	}
	nd := &tnode{
		cfg:       cfg,
		id:        cfg.ID,
		n:         n,
		part:      part,
		m:         newMetrics(cfg.Obs, cfg.ID),
		rng:       jitterRand(cfg),
		canceller: newCanceller(ln),
		jobs:      make(chan tjob, jobs),
		peers:     make([]*tpeer, n),
		// A few frames per stream may queue, so a reader rarely waits on a
		// fold. The pool keeps one raw slice per frame that can be queued,
		// decoding or folding at once: past that it only holds memory.
		events:       make(chan tevent, 4*n),
		pool:         make(rawPool, 5*n+1),
		final:        kernel.NewMerge(),
		slots:        make(map[slotKey]*slot),
		stages:       make(map[streamID]*stage),
		pending:      make(map[streamID]bool),
		epochs:       make(map[int]bool),
		owner:        make([]int, n),
		assignee:     make([]int, n),
		deadPeers:    make([]bool, n),
		complained:   make([]bool, n),
		inbound:      make(map[int]net.Conn),
		lastDoneSent: -1,
	}
	//aggvet:allow loopown -- construction: no goroutine exists yet; control() assumes ownership when it starts
	for i := 0; i < n; i++ {
		p := &tpeer{id: i, out: peer{id: i, timeout: cfg.IOTimeout, m: nd.m}}
		p.down.Store(i != cfg.ID) // a peer is up only once dialed
		nd.peers[i] = p
		nd.owner[i] = i
		nd.assignee[i] = i
		if i == cfg.ID {
			p.out.self = nd.toSelf
		}
		if cfg.Tolerate {
			// This node owns its range at epoch 0 from every partition; with
			// recovery off nothing is accounted per stream.
			nd.slots[slotKey{r: cfg.ID, p: i}] = &slot{acceptable: map[int]bool{0: true}}
		}
	}
	nd.publishOwner()
	return nd
}

func (nd *tnode) publishOwner() {
	snap := make([]int, nd.n)
	copy(snap, nd.owner)
	nd.ownerPtr.Store(&snap)
}

// post delivers an event to the control loop, giving up on cancellation.
func (nd *tnode) post(ev tevent) bool {
	select {
	case nd.events <- ev:
		return true
	case <-nd.done:
		return false
	}
}

// toSelf is a node's self slot: a frame of its own share, or a
// reservation for its own stream, which the scan goroutine posts to the
// control loop as an evFrame event.
func (nd *tnode) toSelf(ev tevent) error {
	ev.typ, ev.peer = evFrame, nd.id
	if !nd.post(ev) {
		return errPeerDown // cancelled: nothing is left to ship to
	}
	return nil
}

// shipFail handles a write failure toward peer d and returns the error that
// ends the scan, if any. With recovery off any failed write is fatal: its
// *NodeError goes to control and ends the scan. With recovery on it marks
// d down (closing the connection, so nothing else blocks on it), and
// either complains to the supervisor or — if the supervisor itself is the
// unreachable one — declares the local node failed, because without the
// supervisor no complaint, done report, or reassignment can reach us.
func (nd *tnode) shipFail(d int, err error) error {
	if !nd.cfg.Tolerate {
		err = nodeErr(nd.id, d, PhaseWrite, err)
		nd.post(tevent{typ: evFatal, err: err})
		return err
	}
	if errors.Is(err, errPeerDown) {
		return nil // already known down; nothing new to report
	}
	nd.peers[d].markDown()
	if d == 0 && nd.id != 0 {
		nd.post(tevent{typ: evFatal, err: nodeErr(nd.id, 0, PhaseWrite,
			fmt.Errorf("supervisor connection lost: %w", err))})
		return nil
	}
	nd.post(tevent{typ: evComplaint, peer: d, phase: PhaseWrite})
	return nil
}

// run executes the node. See the file comment for the architecture; the
// sequencing here matters: the peers a node cannot do without are dialed
// before anything else starts, the heartbeat and control goroutines run
// while the remaining (possibly slow or dead) peers are dialed so the node
// is never silent longer than a beacon interval, and the supervisor's
// decision ticker only starts once its own formation is complete so no
// assignment can be broadcast to a not-yet-dialed peer.
func (nd *tnode) run() (*NodeResult, error) {
	cfg := nd.cfg
	defer nd.cancel()

	// ctrl is the control loop, and rest every other goroutine the node
	// starts: the accept loop, its readers, the heartbeat, the ticker and
	// the scan.
	var ctrl, rest sync.WaitGroup
	spawn := func(wg *sync.WaitGroup, f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	spawn(&rest, func() { nd.accept(&rest) })

	// Peers below first are those this node cannot do without, and a dial
	// failure to one is fatal: with recovery off every peer; with it on
	// the supervisor, without which this node can neither report progress
	// nor learn about reassignments.
	first := nd.n
	if cfg.Tolerate {
		first = 1
	}
	dialSpan := cfg.Tracer.Begin(cfg.ID, "dial")
	up := 0
	deadline := time.Now().Add(cfg.DialTimeout)
	for j := 0; j < first; j++ {
		if j == nd.id {
			continue
		}
		if err := nd.dialOne(j, deadline); err != nil {
			if dialSpan != nil {
				dialSpan.End(fmt.Sprintf("peer %d unreachable", j))
			}
			nd.cancel()
			rest.Wait()
			return nil, err
		}
		up++
	}
	//aggvet:allow loopown -- handoff before control() spawns: the loop goroutine does not exist yet
	if cfg.Tolerate {
		if nd.id == 0 {
			// The failure detector's clock starts at supervisor formation,
			// so every peer gets a full DeadAfter of grace to finish dialing.
			nd.sup = newSupervisor(cfg, time.Now())
		}
		spawn(&rest, nd.heartbeatLoop)
	}
	spawn(&ctrl, nd.control)

	// Remaining peers: a dial failure to a non-supervisor peer is
	// tolerated — mark it down and complain; the supervisor will declare
	// it dead and reassign.
	deadline = time.Now().Add(cfg.DialTimeout)
	for j := first; j < nd.n; j++ {
		if j == nd.id {
			continue
		}
		if err := nd.dialOne(j, deadline); err != nil {
			nd.post(tevent{typ: evComplaint, peer: j, phase: PhaseDial})
			continue
		}
		up++
	}
	if dialSpan != nil {
		dialSpan.End(fmt.Sprintf("%d/%d peers", up, nd.n-1))
	}

	if cfg.Tolerate && nd.id == 0 {
		spawn(&rest, func() {
			t := time.NewTicker(cfg.HeartbeatEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if !nd.post(tevent{typ: evTick}) {
						return
					}
				case <-nd.done:
					return
				}
			}
		})
	}
	spawn(&rest, nd.work)

	ctrl.Wait()
	nd.cancel()
	rest.Wait()

	// control() left its outcome at exit; the scan goroutine's counters are
	// final now too.
	if nd.err != nil {
		return nil, nd.err
	}
	nd.res.Switched, nd.res.RawSent, nd.res.PartialsSent = nd.switched, nd.rawSent, nd.partialsSent
	return nd.res, nil
}

// accept runs the accept loop, serving each connection on a goroutine in
// wg. With recovery off it accepts the n−1 peers within DialTimeout, a
// formation watchdog closing the listener if one never dials (which would
// otherwise park Accept forever), and its error is fatal. With recovery on
// formation has no fixed conn count — a late or restarted peer can still
// connect — so it runs until the listener closes, and silent peers are
// the liveness protocol's business. Its exit caps the inbound universe:
// control learns how many connections ever arrived, so it can recognize
// the moment none of them remain and nothing new can come (checkDeaf).
func (nd *tnode) accept(wg *sync.WaitGroup) {
	if nd.cfg.Tolerate {
		accepted, _ := acceptLoop(nd.canceller, -1, time.Time{}, wg, nd.serve)
		nd.post(tevent{typ: evAcceptDone, peer: accepted})
		return
	}
	formation := time.AfterFunc(nd.cfg.DialTimeout, func() { nd.ln.Close() })
	accepted, err := acceptLoop(nd.canceller, nd.n-1, time.Now().Add(nd.cfg.DialTimeout), wg, nd.serve)
	if !formation.Stop() && err != nil {
		err = fmt.Errorf("cluster formation timed out after %v (%d/%d peers connected)", nd.cfg.DialTimeout, accepted, nd.n-1)
	}
	if err != nil {
		nd.post(tevent{typ: evFatal, err: nodeErr(nd.id, -1, PhaseAccept, err)})
	}
}

// work is the scan goroutine: the node's primary scan, the end of its
// stream at every peer, then the recovery jobs control queues, until
// control exits and closes the queue.
func (nd *tnode) work() {
	scanSpan := nd.cfg.Tracer.Begin(nd.id, "scan")
	primary := streamID{origin: nd.id}
	sc := nd.scan(nd.cfg.Algorithm, primary, len(nd.part))
	if nd.cfg.Tolerate {
		// Route by the owner table reassignments change, and publish the
		// progress heartbeats report.
		sc.Refresh = func(scanned int) []int {
			nd.scanned.Store(int64(scanned))
			return *nd.ownerPtr.Load()
		}
	}
	// A tolerant ship never fails; a fail-fast one has posted its fault.
	err := sc.Run(nd.part)
	nd.m.scanned(&sc, nd.cfg.TableEntries > 0, false)
	nd.switched = sc.FellBack || sc.Switched
	nd.scanFlag.Store(true)
	if scanSpan != nil {
		scanSpan.End(fmt.Sprintf("%d tuples, switched=%v%s", len(nd.part), nd.switched, sc.Note("range")))
	}
	if err == nil {
		// End of the primary stream at every peer: even a peer that
		// received no slices needs the EOS. A failure is handled as
		// the scan's writes are.
		_ = nd.broadcast(nd.peers, frameEOS, primary)
	}
	nd.post(tevent{typ: evScanDone})
	for j := range nd.jobs {
		nd.reexecute(j)
		nd.post(tevent{typ: evJobDone})
	}
}

// outcome is the node's result as control() leaves it. Leftover stages
// are zombie attempts that never found an eligible slot, or streams a
// failed node never saw end.
func (nd *tnode) outcome() (*NodeResult, error) {
	for s := range nd.stages {
		nd.drop(s)
	}
	switch {
	case nd.evicted:
		return nil, nodeErr(nd.id, 0, PhaseHeartbeat, ErrEvicted)
	case nd.fatal != nil:
		return nil, nd.fatal
	case !nd.finished:
		// The done channel closed under us without a finish — only
		// possible if cancel ran from a path that already reported.
		return nil, nodeErr(nd.id, -1, PhaseHeartbeat, fmt.Errorf("query cancelled before completion"))
	}
	// Sanity: every final group must hash to a range this node owns.
	if err := checkRouting(nd.id, nd.final.Table(), func(k tuple.Key) int { return nd.owner[k.Dest(nd.n)] }); err != nil {
		return nil, err
	}
	res := &NodeResult{table: nd.final.Table()}
	for r := 0; r < nd.n; r++ {
		if nd.owner[r] == nd.id {
			res.Ranges = append(res.Ranges, r)
		}
	}
	for x := 0; x < nd.n; x++ {
		if nd.deadPeers[x] {
			res.DeadPeers = append(res.DeadPeers, x)
		}
	}
	return res, nil
}

// dialOne connects to peer j through the shared dialer, performs the
// hello, and installs the connection. The peer stays down on failure.
func (nd *tnode) dialOne(j int, deadline time.Time) error {
	conn, err := dialPeer(nd.cfg, j, deadline, nd.rng, nd.canceller, nd.m)
	if err != nil {
		return err
	}
	p := nd.peers[j]
	p.install(conn)
	if err := p.sayHello(nd.id, nd.cfg.Tolerate); err != nil {
		p.markDown()
		return nodeErr(nd.id, j, PhaseHello, err)
	}
	return nil
}

// serve reads one inbound connection into the control loop. FIFO delivery
// per connection guarantees a finish frame is processed before the
// connection's own teardown error. A connection that dies before its
// hello cannot be complained about, but the control loop counts it: a
// node whose every inbound handshake fails is deaf (an inbound one-way
// partition) and must declare itself failed rather than stall the query.
// With recovery off a connection's stream ends at its EOS: nothing
// follows it, so the reader stops there.
func (nd *tnode) serve(conn net.Conn) {
	src, phase, err := readConn(conn, nd.cfg, nd.pool, nd.m, func(src int, f frame) bool {
		return nd.post(tevent{typ: evFrame, peer: src, f: f, conn: conn}) && (nd.cfg.Tolerate || f.kind != frameEOS)
	})
	if err != nil {
		nd.post(tevent{typ: evReadErr, peer: src, phase: phase, err: err})
	}
}

// progress is the share of the primary scan done, in permille, that a
// heartbeat reports.
func (nd *tnode) progress() int {
	if total := len(nd.part); total > 0 && !nd.scanFlag.Load() {
		return int(nd.scanned.Load() * 1000 / int64(total))
	}
	return 1000
}

// heartbeatLoop beacons liveness + scan progress on every outgoing
// connection (the supervisor beats itself in onTick). TryLock skips a
// peer whose writer is blocked so one stuck connection cannot silence us
// toward everyone else (which would read as OUR death at the supervisor).
func (nd *tnode) heartbeatLoop() {
	t := time.NewTicker(nd.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		permille := uint32(nd.progress())
		for _, p := range nd.peers {
			if p.id == nd.id {
				continue
			}
			err, sent := p.tryControl(frameHeartbeat, nd.id, 0, permille)
			if sent && err == nil {
				nd.m.heartbeat()
			}
			if err != nil && !errors.Is(err, errPeerDown) {
				nd.shipFail(p.id, err)
			}
		}
		select {
		case <-t.C:
		case <-nd.done:
			return
		}
	}
}

// scan is a kernel run over the node's exchange of stream s.
func (nd *tnode) scan(alg Algorithm, s streamID, rows int) kernel.Scan {
	return newScan(nd.cfg, alg, nd.n, rows, &nd.fallback, &exchange{nd: nd, s: s})
}

// broadcast sends a control frame of stream s to every peer in to, with
// the data frames' failure policy: the first error shipFail returns ends it.
func (nd *tnode) broadcast(to []*tpeer, kind frameKind, s streamID) error {
	for _, p := range to {
		if err := p.control(kind, s.origin, s.epoch, 0); err != nil {
			if err = nd.shipFail(p.id, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// reexecute runs one recovery job on the scan goroutine: the scan loop as
// A-2P over the job's partition, whose bounded-table switch degrades the
// remainder to raw shipping (A-2P → Rep) instead of failing the recovery.
func (nd *tnode) reexecute(j tjob) {
	data := nd.part
	if j.partition != nd.id {
		data = nd.cfg.PartitionSource(j.partition)
	}
	s := streamID{origin: j.partition, epoch: j.epoch}
	sc := nd.scan(AdaptiveTwoPhase, s, len(data))
	sc.Keep = j.ranges
	to := nd.peers
	if j.dest >= 0 {
		// Re-extract: every kept key goes to the takeover worker.
		sc.Owner = make([]int, nd.n)
		for r := range sc.Owner {
			sc.Owner[r] = j.dest
		}
		to = nd.peers[j.dest : j.dest+1]
	} else {
		sc.Refresh = func(int) []int { return *nd.ownerPtr.Load() }
	}
	before := nd.rawSent + nd.partialsSent
	_ = sc.Run(data) // a tolerant ship never fails
	nd.m.scanned(&sc, nd.cfg.TableEntries > 0, true)
	nd.m.reship(nd.rawSent + nd.partialsSent - before)
	_ = nd.broadcast(to, frameEOS, s) // a tolerant ship never fails
}

// control is the single-goroutine brain: it owns all merge and duty state,
// leaves the node's outcome in res and err, and is the only writer of the
// jobs channel (closed on exit, which ends the scan goroutine's job loop).
//
//aggvet:loop control
func (nd *tnode) control() {
	defer close(nd.jobs)
	defer func() { nd.res, nd.err = nd.outcome() }()
	if !nd.cfg.Tolerate {
		// Every frame folds straight into final: the loop is the merge.
		if span := nd.cfg.Tracer.Begin(nd.id, "merge"); span != nil {
			defer func() {
				span.End(mergeNote(nd.final))
			}()
		}
	}
	for {
		var ev tevent
		select {
		case ev = <-nd.events:
		case <-nd.done:
			return
		}
		switch ev.typ {
		case evFrame:
			nd.onFrame(ev)
		case evReadErr:
			if !nd.cfg.Tolerate {
				nd.fatal = nodeErr(nd.id, ev.peer, ev.phase, ev.err)
				break
			}
			nd.inboundDead++
			nd.classifyReadErr(ev)
			nd.checkDeaf(ev.err)
		case evComplaint:
			nd.complainAbout(ev.peer, ev.phase)
		case evScanDone:
			nd.scanFinished = true
			nd.maybeDone()
		case evJobDone:
			nd.queuedJobs--
			nd.maybeDone()
		case evTick:
			nd.onTick()
		case evFatal:
			if nd.fatal == nil {
				nd.fatal = ev.err
			}
		case evAcceptDone:
			nd.acceptClosed = true
			nd.acceptedCap = ev.peer
			nd.checkDeaf(fmt.Errorf("listener closed"))
		}
		if nd.finished || nd.evicted || nd.fatal != nil {
			return
		}
	}
}

func (nd *tnode) onFrame(ev tevent) {
	f := ev.f
	if ev.reserve > 0 {
		nd.into(f, 0).Reserve(ev.reserve)
		return
	}
	if !nd.cfg.Tolerate && f.kind >= frameHeartbeat {
		// readFrame decodes every kind of the one protocol, so a tolerant
		// control frame sent after a fail-fast hello lands here: abort
		// rather than drop it.
		nd.fatal = &NodeError{NodeID: nd.id, Peer: -1, Phase: PhaseMerge,
			Err: fmt.Errorf("unexpected frame kind %d in fail-fast mode", f.kind)}
		return
	}
	if nd.sup != nil {
		// Any frame from a peer is liveness evidence.
		nd.sup.beat(ev.peer, 0, time.Now())
	}
	switch f.kind {
	case frameHello:
		nd.everHello = true
		if old, ok := nd.inbound[ev.peer]; ok && old != ev.conn {
			old.Close()
		}
		nd.inbound[ev.peer] = ev.conn
	case frameHeartbeat:
		if nd.sup != nil {
			nd.sup.beat(f.origin, int(f.aux), time.Now())
		}
	case frameSuspect:
		if nd.sup != nil {
			nd.sup.complain(ev.peer, f.origin)
			if span := nd.cfg.Tracer.Begin(nd.id, "suspect"); span != nil {
				span.End(fmt.Sprintf("node %d blames %d (%s)", ev.peer, f.origin, codePhase(f.aux)))
			}
		}
	case frameDone:
		if nd.sup != nil {
			nd.sup.done(ev.peer, int(f.aux))
			nd.checkFinished()
		}
	case frameAssign:
		nd.onAssign(assignment{
			Node:   f.origin,
			Worker: int(f.aux & 0xFFFF),
			Epoch:  f.epoch,
			Dead:   f.aux&assignDeadFlag != 0,
		})
	case frameEvict:
		nd.evicted = true
	case frameFinish:
		nd.finished = true
	case frameEOP:
		nd.fallback.Store(true)
	case frameRaw:
		nd.into(f, 1).Raw(f.raw)
		nd.pool.put(f.raw, nd.done)
	case framePartial:
		nd.into(f, 1).Partials(f.partials)
	case frameEOS:
		if nd.cfg.Tolerate {
			nd.tryCommit(f.stream())
			return
		}
		// Nothing was staged, so nothing is poured: a stream's end is counted.
		nd.eos++
		nd.maybeDone()
	}
}

// into is the table a frame folds into, counting frames toward a stage.
// With recovery off it is the final table, as nothing can supersede a
// stream, so a fail-fast node never stages and never reads a frame's
// origin; with recovery on it is the stage of the frame's stream.
func (nd *tnode) into(f frame, frames int64) *kernel.Merge {
	if !nd.cfg.Tolerate {
		return nd.final
	}
	st := nd.stage(f.stream())
	st.frames += frames
	return st.Merge
}

func (nd *tnode) stage(s streamID) *stage {
	st, ok := nd.stages[s]
	if !ok {
		st = &stage{Merge: kernel.NewMerge()}
		nd.stages[s] = st
	}
	return st
}

// drop discards stream s's stage, if any: its frames count as stale and its
// table goes back to the pool.
func (nd *tnode) drop(s streamID) {
	if st, ok := nd.stages[s]; ok {
		nd.m.stale(st.frames)
		st.Release()
		delete(nd.stages, s)
	}
}

// checkDeaf fails the node the moment no frame can ever reach it again:
// every inbound connection that arrived has died, and either the full
// mesh had formed (n−1 conns, one per peer) or the listener itself is
// gone so nothing new can connect. Without this a node whose connections
// are all torn down mid-query would wait forever for a finish or evict
// frame that cannot be delivered. Per-connection FIFO makes the rule
// race-free — a finish frame is always queued ahead of its own
// connection's death event, so a completed query never trips it. Node 0
// is never deaf: it hears itself (its own ticks and self slot), and a
// peer it cannot hear goes stale and dies to the supervisor, so a node 0
// whose every peer died still finishes alone, as does a one-node cluster,
// which has no inbound connection at all.
func (nd *tnode) checkDeaf(cause error) {
	if nd.id == 0 || nd.fatal != nil || nd.finished || nd.evicted || len(nd.inbound) != 0 {
		return
	}
	noMesh := nd.inboundDead >= nd.n-1
	noListener := nd.acceptClosed && nd.inboundDead >= nd.acceptedCap
	if noMesh || noListener {
		nd.fatal = nodeErr(nd.id, -1, PhaseHeartbeat,
			fmt.Errorf("all inbound connections lost before completion: %w", cause))
	}
}

func (nd *tnode) classifyReadErr(ev tevent) {
	if ev.peer < 0 {
		nd.helloFails++
		if nd.id != 0 && !nd.everHello && nd.helloFails >= nd.n-1 {
			// Every inbound connection (we expect n−1, one per peer) died
			// before a single hello arrived: we can transmit but not
			// receive. Stop heartbeating so the supervisor declares us
			// dead and reassigns. Node 0 hears itself, as in checkDeaf.
			nd.fatal = nodeErr(nd.id, -1, PhaseHeartbeat,
				fmt.Errorf("isolated: no inbound handshake completed (%d attempts): %w", nd.helloFails, ev.err))
		}
		return
	}
	if c, ok := nd.inbound[ev.peer]; ok {
		c.Close()
		delete(nd.inbound, ev.peer)
	}
	if nd.deadPeers[ev.peer] {
		// The expected teardown of a peer already declared dead.
		return
	}
	if ev.peer == 0 && nd.id != 0 {
		// The supervisor stopped talking: without it no recovery or
		// completion can be coordinated. (A clean finish arrives as a
		// frame before this connection's EOF, FIFO per connection.)
		nd.fatal = nodeErr(nd.id, 0, PhaseHeartbeat,
			fmt.Errorf("supervisor connection lost: %w", ev.err))
		return
	}
	nd.complainAbout(ev.peer, PhaseRead)
}

// complainAbout reports a failed operation toward peer x to the
// supervisor. Complaints are advisory and therefore best-effort: losing
// one only delays failure detection, and making them fatal would turn
// benign teardown races (a finished peer closing its connections a beat
// before our finish frame is processed) into spurious node failures.
func (nd *tnode) complainAbout(x int, phase Phase) {
	if x < 0 || x >= nd.n || nd.complained[x] || nd.deadPeers[x] {
		return
	}
	nd.complained[x] = true
	if nd.sup != nil {
		nd.sup.complain(0, x)
		return
	}
	if err := nd.peers[0].control(frameSuspect, x, 0, phaseCode(phase)); err != nil && !errors.Is(err, errPeerDown) {
		nd.peers[0].markDown()
	}
}

func (nd *tnode) onTick() {
	if nd.sup == nil {
		return
	}
	now := time.Now()
	nd.sup.beat(nd.id, nd.progress(), now)
	decisions := nd.sup.decide(now)
	for _, x := range nd.sup.takeSuspects() {
		nd.m.suspicion(x)
	}
	for _, a := range decisions {
		if a.Dead {
			nd.m.death(a.Node)
			// Best-effort eviction notice, so a slandered-but-alive node
			// (one-way partition) stops instead of shipping frames the
			// cluster will discard.
			nd.peers[a.Node].control(frameEvict, a.Node, a.Epoch, 0)
		}
		aux := uint32(a.Worker)
		if a.Dead {
			aux |= assignDeadFlag
		}
		for j, p := range nd.peers {
			if nd.deadPeers[j] || (a.Dead && j == a.Node) || j == nd.id {
				continue
			}
			if err := p.control(frameAssign, a.Node, a.Epoch, aux); err != nil && !errors.Is(err, errPeerDown) {
				nd.shipFail(j, err)
			}
		}
		// Then to ourselves, in place: a post to our own events channel
		// from the loop that drains it could block for good.
		nd.onAssign(a)
	}
	nd.checkFinished()
}

func (nd *tnode) checkFinished() {
	if nd.finished || nd.sup == nil || !nd.sup.finished() {
		return
	}
	if !nd.sup.lastDeathAt.IsZero() {
		nd.m.recoverLatency(time.Since(nd.sup.lastDeathAt).Nanoseconds())
	}
	for j, p := range nd.peers {
		if nd.deadPeers[j] || j == nd.id {
			continue
		}
		p.control(frameFinish, 0, nd.sup.epoch, 0)
	}
	nd.finished = true
}

// onAssign applies one supervisor reassignment: all duties of a.Node move
// to a.Worker at a.Epoch. This is where the exactly-once algebra lives —
// see DESIGN.md §11 for the proof sketch.
func (nd *tnode) onAssign(a assignment) {
	if a.Epoch <= 0 || nd.epochs[a.Epoch] ||
		a.Node < 0 || a.Node >= nd.n || a.Worker < 0 || a.Worker >= nd.n {
		return
	}
	nd.epochs[a.Epoch] = true
	if a.Epoch > nd.maxEpoch {
		nd.maxEpoch = a.Epoch
	}
	if a.Dead && a.Node == nd.id {
		nd.evicted = true
		return
	}
	// Partitions currently the subject's responsibility.
	moved := make([]bool, nd.n)
	for q := 0; q < nd.n; q++ {
		if nd.assignee[q] == a.Node {
			moved[q] = true
		}
	}
	if a.Dead {
		nd.deadPeers[a.Node] = true
		nd.peers[a.Node].markDown()
		if c, ok := nd.inbound[a.Node]; ok {
			c.Close()
			delete(nd.inbound, a.Node)
		}
		// Ranges the dead node owned move to the worker.
		takenRanges := make([]bool, nd.n)
		anyRange := false
		for r := 0; r < nd.n; r++ {
			if nd.owner[r] == a.Node {
				takenRanges[r] = true
				anyRange = true
				nd.owner[r] = a.Worker
			}
		}
		for q := 0; q < nd.n; q++ {
			if moved[q] {
				nd.assignee[q] = a.Worker
				nd.m.reassign(q, true)
			}
		}
		nd.publishOwner()
		// Unsatisfied slots fed by a moved partition now accept ONLY the
		// new epoch: the dead node's partial stream can never complete,
		// and the re-execution replaces it wholesale.
		for k, sl := range nd.slots {
			if moved[k.p] && !sl.sat {
				sl.acceptable = map[int]bool{a.Epoch: true}
			}
		}
		if a.Worker == nd.id {
			// We own the taken-over ranges now; every partition owes them
			// a slice at the new epoch (live peers re-extract, we re-scan
			// the dead ones).
			for r := 0; r < nd.n; r++ {
				if !takenRanges[r] {
					continue
				}
				for q := 0; q < nd.n; q++ {
					nd.slots[slotKey{r: r, p: q}] = &slot{acceptable: map[int]bool{a.Epoch: true}}
				}
			}
			for q := 0; q < nd.n; q++ {
				if moved[q] {
					nd.enqueueJob(tjob{partition: q, epoch: a.Epoch, dest: -1})
				}
			}
		}
		if anyRange {
			// Re-extract the taken ranges' slices from every partition we
			// are responsible for (excluding ones that just moved — the
			// worker's re-scan covers those end to end).
			for q := 0; q < nd.n; q++ {
				if moved[q] || nd.assignee[q] != nd.id {
					continue
				}
				nd.enqueueJob(tjob{partition: q, epoch: a.Epoch, ranges: takenRanges, dest: a.Worker})
			}
		}
		// The dead node's primary stream can no longer commit anywhere
		// here; drop its stage if it never completed.
		nd.drop(streamID{origin: a.Node})
	} else {
		// Speculative: the straggler's partitions gain an alternative
		// epoch; first complete attempt per slot wins. No ranges move.
		for q := 0; q < nd.n; q++ {
			if moved[q] {
				nd.m.reassign(q, false)
			}
		}
		for k, sl := range nd.slots {
			if moved[k.p] && !sl.sat {
				sl.acceptable[a.Epoch] = true
			}
		}
		if a.Worker == nd.id {
			for q := 0; q < nd.n; q++ {
				if moved[q] {
					nd.enqueueJob(tjob{partition: q, epoch: a.Epoch, dest: -1})
				}
			}
		}
	}
	// Streams that completed before we learned their epoch can commit now.
	for s := range nd.pending {
		if s.epoch == a.Epoch {
			delete(nd.pending, s)
			nd.tryCommit(s)
		}
	}
	nd.maybeDone()
}

func (nd *tnode) enqueueJob(j tjob) {
	nd.queuedJobs++
	select {
	case nd.jobs <- j:
	case <-nd.done:
	}
}

// tryCommit folds a complete stream into the final table, filtered per
// key by slot eligibility: a key folds only if the slot for its range
// (a) is unsatisfied and (b) accepts the stream's epoch. A stream with
// no eligible slots is a zombie or a speculative loser and is discarded
// whole. This per-key filter is what makes overlapping attempts safe:
// two complete attempts over the same partition can both commit — to
// disjoint slot sets.
func (nd *tnode) tryCommit(s streamID) {
	st := nd.stage(s)
	if s.epoch > 0 && !nd.epochs[s.epoch] {
		// EOS raced ahead of the assign that justifies its epoch (the
		// supervisor's broadcast and the worker's stream travel on
		// different connections). Park it; onAssign re-tries.
		nd.pending[s] = true
		return
	}
	eligible := make([]bool, nd.n)
	found := false
	for k, sl := range nd.slots {
		if k.p == s.origin && !sl.sat && sl.acceptable[s.epoch] {
			eligible[k.r], found = true, true
		}
	}
	if !found {
		nd.drop(s)
		if span := nd.cfg.Tracer.Begin(nd.id, "discard"); span != nil {
			span.End(fmt.Sprintf("stale stream %s", s))
		}
		return
	}
	if span := nd.cfg.Tracer.Begin(nd.id, "commit"); span != nil {
		span.End(fmt.Sprintf("stream %s: %s", s, mergeNote(st.Merge)))
	}
	st.Pour(nd.final, eligible)
	for k, sl := range nd.slots {
		if k.p == s.origin && eligible[k.r] {
			sl.sat = true
		}
	}
	nd.m.streamCommit(s.epoch)
	delete(nd.stages, s)
	nd.maybeDone()
}

// mergeNote describes a merge table for its span: groups, reservation,
// slot array, and the raw tuples it staged (DESIGN.md §14).
func mergeNote(m *kernel.Merge) string {
	tab := m.Table()
	staged, folds := m.Staged()
	return fmt.Sprintf("%d groups, reserved %d, %d slots, staged %d in %d folds",
		tab.Len(), m.Reserved(), tab.Slots(), staged, folds)
}

// maybeDone reports completion (scan finished, job queue drained, every
// slot satisfied) to the supervisor, watermarked by the highest epoch
// this node has processed; a later assign lowers the watermark below the
// supervisor's epoch and forces a re-report once the new work is done.
func (nd *tnode) maybeDone() {
	if !nd.scanFinished || nd.queuedJobs > 0 {
		return
	}
	if !nd.cfg.Tolerate {
		// Done is finished once all n streams ended: no supervisor to tell.
		nd.finished = nd.eos == nd.n
		return
	}
	for _, sl := range nd.slots {
		if !sl.sat {
			return
		}
	}
	if nd.lastDoneSent >= nd.maxEpoch {
		return
	}
	nd.lastDoneSent = nd.maxEpoch
	if nd.sup != nil {
		// The supervisor is us: report in place.
		nd.sup.done(nd.id, nd.maxEpoch)
		nd.checkFinished()
		return
	}
	if err := nd.peers[0].control(frameDone, nd.id, 0, uint32(nd.maxEpoch)); err != nil {
		if !errors.Is(err, errPeerDown) {
			nd.peers[0].markDown()
		}
		nd.fatal = nodeErr(nd.id, 0, PhaseHeartbeat,
			fmt.Errorf("cannot report completion to supervisor: %w", err))
	}
}
