package dist

import (
	"errors"
	"net"
	"strconv"
	"time"

	"parallelagg/internal/kernel"
	"parallelagg/internal/obs"
	"parallelagg/internal/tuple"
)

// frameHello is a pseudo frame kind used only for metric labels: the
// 4-byte hello handshake is not a framed message but its bytes still
// count toward per-peer traffic.
const frameHello frameKind = 0

// metrics is one node's bound instrument set over the shared registry.
// A nil *metrics (no registry configured) no-ops everywhere, so the
// exchange hot paths carry no enablement branches.
type metrics struct {
	node string

	framesSent *obs.CounterVec // {node, peer, kind}
	bytesSent  *obs.CounterVec // {node, peer}
	framesRecv *obs.CounterVec // {node, peer, kind}
	bytesRecv  *obs.CounterVec // {node, peer}

	dialRetries  *obs.CounterVec // {node, peer}
	backoffNs    *obs.Counter
	deadlineHits *obs.CounterVec // {node, phase}

	hashOcc  *obs.Gauge
	switches *obs.CounterVec // {node, to}

	// Recovery instruments (tolerant mode; dist_recover_*).
	heartbeats    *obs.Counter    // {node} heartbeat frames sent
	suspicions    *obs.CounterVec // {node, peer} peers classified suspect
	deaths        *obs.CounterVec // {node, peer} peers declared dead
	reassigns     *obs.CounterVec // {node, partition, kind=dead|speculative}
	staleFrames   *obs.Counter    // {node} zombie/loser frames discarded
	reships       *obs.Counter    // {node} records re-shipped by recovery jobs
	downgrades    *obs.Counter    // {node} bounded-table downgrades during recovery
	recoverNs     *obs.Gauge      // {node} worst death->all-done latency (supervisor)
	streamcommits *obs.CounterVec // {node, epoch0=primary|recovery}
}

// newMetrics binds the dist metric families for node id. Returns nil
// (the disabled instrument set) when r is nil.
func newMetrics(r *obs.Registry, id int) *metrics {
	if r == nil {
		return nil
	}
	node := strconv.Itoa(id)
	return &metrics{
		node: node,
		framesSent: r.CounterVec("dist_frames_sent_total",
			"wire frames written, by destination peer and frame kind", "node", "peer", "kind"),
		bytesSent: r.CounterVec("dist_bytes_sent_total",
			"wire bytes written per destination peer (headers + records + hello)", "node", "peer"),
		framesRecv: r.CounterVec("dist_frames_recv_total",
			"wire frames read, by source peer and frame kind", "node", "peer", "kind"),
		bytesRecv: r.CounterVec("dist_bytes_recv_total",
			"wire bytes read per source peer (headers + records + hello)", "node", "peer"),
		dialRetries: r.CounterVec("dist_dial_retries_total",
			"failed dial attempts that were retried with backoff", "node", "peer"),
		backoffNs: r.CounterVec("dist_backoff_wait_ns_total",
			"total time slept in dial backoff", "node").With(node),
		deadlineHits: r.CounterVec("dist_deadline_hits_total",
			"I/O operations failed by an expired read or write deadline", "node", "phase"),
		hashOcc: r.GaugeVec("dist_hash_occupancy_permille",
			"high-water fill of the local hash table per 1000 entries", "node").With(node),
		switches: r.CounterVec("dist_phase_switch_total",
			"adaptive strategy switches fired", "node", "to"),
		heartbeats: r.CounterVec("dist_recover_heartbeats_total",
			"liveness heartbeat frames sent", "node").With(node),
		suspicions: r.CounterVec("dist_recover_suspicions_total",
			"peers classified suspect by the supervisor", "node", "peer"),
		deaths: r.CounterVec("dist_recover_deaths_total",
			"peers declared dead by the supervisor", "node", "peer"),
		reassigns: r.CounterVec("dist_recover_reassign_total",
			"partition reassignments broadcast or applied", "node", "partition", "kind"),
		staleFrames: r.CounterVec("dist_recover_stale_frames_total",
			"zombie or speculative-loser frames discarded by the merge side", "node").With(node),
		reships: r.CounterVec("dist_recover_reships_total",
			"records re-shipped by recovery re-scan/re-extract jobs", "node").With(node),
		downgrades: r.CounterVec("dist_recover_downgrades_total",
			"bounded-table refusals downgraded to raw shipping during recovery", "node").With(node),
		recoverNs: r.GaugeVec("dist_recover_latency_ns",
			"worst-case latency from a death declaration to cluster completion", "node").With(node),
		streamcommits: r.CounterVec("dist_recover_stream_commits_total",
			"complete (origin, epoch) streams folded into the final table", "node", "attempt"),
	}
}

// kindName maps a frame kind to its metric label.
func kindName(kind frameKind) string {
	switch kind {
	case frameHello:
		return "hello"
	case frameRaw:
		return "raw"
	case framePartial:
		return "partial"
	case frameEOS:
		return "eos"
	case frameEOP:
		return "eop"
	case frameHeartbeat:
		return "heartbeat"
	case frameSuspect:
		return "suspect"
	case frameAssign:
		return "assign"
	case frameEvict:
		return "evict"
	case frameDone:
		return "done"
	case frameFinish:
		return "finish"
	default:
		return "unknown"
	}
}

// frameBytes is the wire size of a frame with the given record count: the
// header plus records, or the 4-byte hello.
func frameBytes(kind frameKind, count int) int64 {
	switch kind {
	case frameHello:
		return 4
	case frameRaw:
		return headerSize + int64(count)*tuple.RawSize
	case framePartial:
		return headerSize + int64(count)*tuple.PartialSize
	default:
		return headerSize
	}
}

func (m *metrics) sent(peer int, kind frameKind, count int) {
	if m == nil {
		return
	}
	p := strconv.Itoa(peer)
	m.framesSent.With(m.node, p, kindName(kind)).Inc()
	m.bytesSent.With(m.node, p).Add(frameBytes(kind, count))
}

func (m *metrics) recv(peer int, kind frameKind, count int) {
	if m == nil {
		return
	}
	p := strconv.Itoa(peer)
	m.framesRecv.With(m.node, p, kindName(kind)).Inc()
	m.bytesRecv.With(m.node, p).Add(frameBytes(kind, count))
}

func (m *metrics) heartbeat() {
	if m == nil {
		return
	}
	m.heartbeats.Inc()
}

func (m *metrics) suspicion(peer int) {
	if m == nil {
		return
	}
	m.suspicions.With(m.node, strconv.Itoa(peer)).Inc()
}

func (m *metrics) death(peer int) {
	if m == nil {
		return
	}
	m.deaths.With(m.node, strconv.Itoa(peer)).Inc()
}

func (m *metrics) reassign(partition int, dead bool) {
	if m == nil {
		return
	}
	kind := "speculative"
	if dead {
		kind = "dead"
	}
	m.reassigns.With(m.node, strconv.Itoa(partition), kind).Inc()
}

func (m *metrics) stale(frames int64) {
	if m == nil || frames <= 0 {
		return
	}
	m.staleFrames.Add(frames)
}

func (m *metrics) reship(records int64) {
	if m == nil || records <= 0 {
		return
	}
	m.reships.Add(records)
}

func (m *metrics) recoverLatency(ns int64) {
	if m == nil {
		return
	}
	m.recoverNs.Max(ns)
}

func (m *metrics) streamCommit(epoch int) {
	if m == nil {
		return
	}
	attempt := "primary"
	if epoch > 0 {
		attempt = "recovery"
	}
	m.streamcommits.With(m.node, attempt).Inc()
}

func (m *metrics) dialRetry(peer int) {
	if m == nil {
		return
	}
	m.dialRetries.With(m.node, strconv.Itoa(peer)).Inc()
}

func (m *metrics) backoff(d time.Duration) {
	if m == nil || d <= 0 {
		return
	}
	m.backoffNs.Add(int64(d))
}

// ioError classifies err after a failed I/O operation: an expired
// deadline (net.Error with Timeout true) bumps the deadline-hit
// counter for the protocol phase.
func (m *metrics) ioError(phase Phase, err error) {
	if m == nil || err == nil {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		m.deadlineHits.With(m.node, string(phase)).Inc()
	}
}

// scanned records a finished scan's switches and, for a bounded table,
// its high-water fill level. A recovery job's switch is a downgrade to raw
// shipping, not an adaptive strategy switch.
func (m *metrics) scanned(sc *kernel.Scan, bounded, recovery bool) {
	if m == nil {
		return
	}
	if bounded {
		m.hashOcc.Max(int64(sc.Occ))
	}
	if sc.FellBack {
		m.switches.With(m.node, "local").Inc()
	}
	switch {
	case sc.Switched && recovery:
		m.downgrades.Inc()
	case sc.Switched:
		m.switches.With(m.node, "repart").Inc()
	}
}
