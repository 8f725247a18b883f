package dist

import (
	"slices"
	"time"
)

// Liveness is the supervisor's classification of a peer.
type Liveness int

const (
	// Live: heartbeats are fresh.
	Live Liveness = iota
	// Suspect: heartbeats are stale past SuspectAfter, or a peer has
	// complained about failed I/O toward this node.
	Suspect
	// Dead: declared failed; duties reassigned, frames discarded.
	Dead
)

func (l Liveness) String() string {
	switch l {
	case Live:
		return "live"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// assignment is one supervisor decision: every duty of node Node — its
// input partitions and its owned merge ranges — moves to Worker at Epoch.
// Dead means Node is declared failed (full takeover and eviction);
// otherwise this is a speculative re-execution of Node's partitions and
// the first complete attempt per receiver wins.
type assignment struct {
	Node   int
	Worker int
	Epoch  int
	Dead   bool
}

// supervisor is the query-wide failure detector and reassignment
// authority, run by node 0's control loop in tolerant mode. It is a pure
// state machine over reported events (heartbeats, complaints, done
// watermarks) and explicit clock readings, so tests drive it
// deterministically without sleeping.
type supervisor struct {
	n   int
	cfg Config

	lastBeat   []time.Time
	progress   []int // permille of partition scanned, last reported
	complaints [][]bool
	dead       []bool
	suspected  []bool // latched for metrics: suspicion reported once
	speculated []bool
	doneEpoch  []int // last done watermark per node; -1 = not done

	// Mirrors of the duty tables every node maintains, used to pick the
	// least-loaded worker for a reassignment.
	partAssignee []int
	rangeOwner   []int

	epoch       int
	lastDeathAt time.Time
	newSuspects []int // latched by decide, drained by the control loop for metrics
}

func newSupervisor(cfg Config, start time.Time) *supervisor {
	n := len(cfg.Addrs)
	s := &supervisor{
		n:            n,
		cfg:          cfg,
		lastBeat:     make([]time.Time, n),
		progress:     make([]int, n),
		complaints:   make([][]bool, n),
		dead:         make([]bool, n),
		suspected:    make([]bool, n),
		speculated:   make([]bool, n),
		doneEpoch:    make([]int, n),
		partAssignee: make([]int, n),
		rangeOwner:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		s.lastBeat[i] = start
		s.complaints[i] = make([]bool, n)
		s.doneEpoch[i] = -1
		s.partAssignee[i] = i
		s.rangeOwner[i] = i
	}
	return s
}

// beat records a heartbeat (or any frame arrival, which proves liveness
// just as well) from node i.
func (s *supervisor) beat(i, permille int, at time.Time) {
	if i < 0 || i >= s.n {
		return
	}
	if at.After(s.lastBeat[i]) {
		s.lastBeat[i] = at
	}
	if permille > s.progress[i] {
		s.progress[i] = permille
	}
}

// complain records that node `by` failed an I/O operation toward node
// `about`.
func (s *supervisor) complain(by, about int) {
	if by < 0 || by >= s.n || about < 0 || about >= s.n || by == about {
		return
	}
	s.complaints[by][about] = true
}

// done records node i's completion watermark.
func (s *supervisor) done(i, epoch int) {
	if i < 0 || i >= s.n {
		return
	}
	if epoch > s.doneEpoch[i] {
		s.doneEpoch[i] = epoch
	}
}

func (s *supervisor) complaintsAbout(x int) int {
	c := 0
	for by := 0; by < s.n; by++ {
		if !s.dead[by] && s.complaints[by][x] {
			c++
		}
	}
	return c
}

func (s *supervisor) liveCount() int {
	c := 0
	for i := 0; i < s.n; i++ {
		if !s.dead[i] {
			c++
		}
	}
	return c
}

// classify returns node x's current liveness from the supervisor's view.
func (s *supervisor) classify(x int, at time.Time) Liveness {
	if s.dead[x] {
		return Dead
	}
	stale := at.Sub(s.lastBeat[x])
	if stale > s.cfg.SuspectAfter || s.complaintsAbout(x) > 0 {
		return Suspect
	}
	return Live
}

// isolated reports whether node x's complaints blame at least a majority
// of the other live nodes whose own heartbeats are fresh — the signature
// of x sitting behind an inbound one-way partition: everyone looks dead
// to x while x looks live to the supervisor. The complainer, not the
// accused, is the failed party.
func (s *supervisor) isolated(x int, at time.Time) bool {
	others, blamedFresh := 0, 0
	for y := 0; y < s.n; y++ {
		if y == x || s.dead[y] {
			continue
		}
		others++
		if s.complaints[x][y] && at.Sub(s.lastBeat[y]) <= s.cfg.SuspectAfter {
			blamedFresh++
		}
	}
	return others > 0 && blamedFresh >= others/2+1
}

// shouldDie is the death rule for node x (never the supervisor itself):
// heartbeats stale past DeadAfter; stale past SuspectAfter with at least
// one complaint; a majority of live peers complaining; or x isolated
// behind a one-way partition (see isolated).
func (s *supervisor) shouldDie(x int, at time.Time) bool {
	if x == 0 || s.dead[x] {
		return false
	}
	stale := at.Sub(s.lastBeat[x])
	if stale > s.cfg.DeadAfter {
		return true
	}
	about := s.complaintsAbout(x)
	if stale > s.cfg.SuspectAfter && about > 0 {
		return true
	}
	if about >= s.liveCount()/2+1 {
		return true
	}
	return s.isolated(x, at)
}

// shouldSpeculate is the straggler rule: the median live node has scanned
// most of its partition while x lags more than SpeculateFactor× behind,
// with fresh heartbeats (a stale x is the death rule's business).
func (s *supervisor) shouldSpeculate(x int, at time.Time) bool {
	if s.cfg.SpeculateFactor <= 0 || s.dead[x] || s.speculated[x] {
		return false
	}
	if s.progress[x] >= 1000 || at.Sub(s.lastBeat[x]) > s.cfg.SuspectAfter {
		return false
	}
	med := s.medianProgress()
	return med >= 800 && s.progress[x]*s.cfg.SpeculateFactor < med
}

func (s *supervisor) medianProgress() int {
	var vals []int
	for i := 0; i < s.n; i++ {
		if !s.dead[i] {
			vals = append(vals, s.progress[i])
		}
	}
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	return vals[len(vals)/2]
}

// pickWorker chooses the reassignment target for node d's duties: the
// live node (excluding d) assigned the fewest partitions, ties broken by
// lowest id — deterministic given the same event history.
func (s *supervisor) pickWorker(d int) int {
	load := make([]int, s.n)
	for p := 0; p < s.n; p++ {
		load[s.partAssignee[p]]++
	}
	best := -1
	for w := 0; w < s.n; w++ {
		if w == d || s.dead[w] {
			continue
		}
		if best < 0 || load[w] < load[best] {
			best = w
		}
	}
	return best
}

// decide evaluates the death and straggler rules against the clock and
// returns the assignments to broadcast, applying them to the mirror
// tables. Empty result means no action.
func (s *supervisor) decide(at time.Time) []assignment {
	var out []assignment
	for x := 0; x < s.n; x++ {
		if s.dead[x] {
			continue
		}
		if x != 0 && !s.suspected[x] && s.classify(x, at) == Suspect {
			s.suspected[x] = true
			s.newSuspects = append(s.newSuspects, x)
		}
		if s.shouldDie(x, at) {
			w := s.pickWorker(x)
			if w < 0 {
				continue // nobody left to take over; the query will fail
			}
			s.dead[x] = true
			s.epoch++
			s.lastDeathAt = at
			for p := 0; p < s.n; p++ {
				if s.partAssignee[p] == x {
					s.partAssignee[p] = w
				}
				if s.rangeOwner[p] == x {
					s.rangeOwner[p] = w
				}
			}
			out = append(out, assignment{Node: x, Worker: w, Epoch: s.epoch, Dead: true})
			continue
		}
		if s.shouldSpeculate(x, at) {
			w := s.pickWorker(x)
			if w < 0 {
				continue
			}
			s.speculated[x] = true
			s.epoch++
			out = append(out, assignment{Node: x, Worker: w, Epoch: s.epoch, Dead: false})
		}
	}
	return out
}

// takeSuspects drains the nodes newly classified suspect since the last
// call (the control loop emits a metric per transition).
func (s *supervisor) takeSuspects() []int {
	out := s.newSuspects
	s.newSuspects = nil
	return out
}

// finished reports whether every live node (including the supervisor
// itself) has declared done at the current epoch.
func (s *supervisor) finished() bool {
	for i := 0; i < s.n; i++ {
		if !s.dead[i] && s.doneEpoch[i] < s.epoch {
			return false
		}
	}
	return true
}
