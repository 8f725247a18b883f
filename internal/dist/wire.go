package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parallelagg/internal/tuple"
)

// Wire protocol: length-delimited frames over TCP, one format for both
// modes.
//
//	hello (once per connection):  [u32 helloTolerantFlag?|srcID]
//	frame:                        [u8 kind][u8 origin][u16 epoch][u32 aux][u32 count][count records]
//
// The hello names the sender, and its helloTolerantFlag bit is what tells
// the modes apart: a node refuses a hello of the other mode or from an id
// outside its cluster, so a mixed-mode cluster fails the handshake instead
// of folding the other mode's frames.
//
// origin and epoch are the frame's stream tag. origin names the input
// partition whose data the stream carries (NOT the sender: a recovery
// worker ships partition d's re-execution as origin d); epoch is the
// supervisor-assigned attempt number (0 = the primary scan). A fail-fast
// node sends origin = its id (its low byte) and epoch 0, and its control
// loop never reads them, so fail-fast clusters may exceed maxOrigins. aux
// is a control frame's immediate (heartbeat progress, assign owner and
// flags, done watermark) and 0 on a data frame. Raw records are
// tuple.RawSize bytes, partial records tuple.PartialSize bytes, in the
// same little-endian layout the simulator's pages use; a control frame
// has count 0.
//
// frameKind is marked exhaustive: every switch over a frameKind must
// either handle all declared kinds or reject unknown ones with an
// error-returning default, so adding a control frame cannot silently fall
// through an old dispatch point.
//
//aggvet:exhaustive
type frameKind byte

const (
	frameRaw     frameKind = 1
	framePartial frameKind = 2
	frameEOS     frameKind = 3
	// frameEOP carries Adaptive Repartitioning's end-of-phase broadcast.
	frameEOP frameKind = 4

	// The tolerant protocol's control frames (Config.Tolerate; DESIGN.md
	// §11). A fail-fast node decodes them like any other kind and aborts.
	//
	// frameHeartbeat carries liveness + scan progress (aux = permille of
	// the sender's partition scanned). origin = sender.
	frameHeartbeat frameKind = 5
	// frameSuspect is a complaint to the supervisor: origin = the peer
	// the sender failed to reach, aux = a phaseCode for the failed op.
	frameSuspect frameKind = 6
	// frameAssign is the supervisor's reassignment broadcast: all duties
	// of node `origin` move to node `aux&0xFFFF` at `epoch`;
	// aux bit 16 set means origin is declared dead (full takeover),
	// clear means a speculative re-execution (first complete attempt wins).
	frameAssign frameKind = 7
	// frameEvict tells the recipient the supervisor has declared it dead;
	// it must stop and return ErrEvicted.
	frameEvict frameKind = 8
	// frameDone reports to the supervisor that the sender's scan, queued
	// recovery jobs, and merge are complete as of epoch aux.
	frameDone frameKind = 9
	// frameFinish is the supervisor's broadcast that every live node is
	// done: recipients tear down cleanly and return their results.
	frameFinish frameKind = 10
)

const (
	headerSize = 12

	// maxOrigins is how many nodes the one-byte origin can name: a
	// tolerant cluster larger than this would mix up its streams.
	maxOrigins = 1 << 8

	// helloTolerantFlag marks a tolerant node's hello.
	helloTolerantFlag = 0x40000000

	// assignDeadFlag in frameAssign's aux marks a dead takeover (vs. a
	// speculative duplicate execution).
	assignDeadFlag = 1 << 16
)

// maxFrameRecords bounds a frame so a corrupt length cannot allocate
// unbounded memory. The bound is enforced on BOTH sides of the wire: the
// decoder rejects oversized counts from a hostile or corrupt peer, and
// the frame encoders refuse to emit a batch that a conforming decoder
// would reject (a silent >maxFrameRecords write would poison the stream
// for every later frame on the connection).
const maxFrameRecords = 1 << 20

// allocChunk is the most body bytes a decoder takes from the reader in one
// step (Peek, decode the whole run, Discard), so it must fit the smallest
// bufio.Reader in use — the 4,096-byte default. The record slice grows
// with append only as those bytes actually arrive, so a forged header
// claiming maxFrameRecords records costs a few KiB, not tens of MiB,
// before the connection's read deadline or a short read kills it.
const allocChunk = 4096

// phaseCodes numbers the phases a suspect frame's u32 aux can name; code
// 0 is unknown.
var phaseCodes = [...]Phase{"unknown", PhaseDial, PhaseHello, PhaseAccept, PhaseRead, PhaseWrite, PhaseMerge, PhaseHeartbeat}

// phaseCode compresses a Phase into the u32 aux of a suspect frame.
func phaseCode(p Phase) uint32 {
	for c, q := range phaseCodes[1:] {
		if q == p {
			return uint32(c + 1)
		}
	}
	return 0
}

func codePhase(c uint32) Phase {
	if c >= uint32(len(phaseCodes)) {
		c = 0
	}
	return phaseCodes[c]
}

// streamID identifies one shipment attempt: which input partition the
// data derives from, and which supervisor-assigned attempt produced it.
type streamID struct {
	origin int
	epoch  int
}

func (s streamID) String() string { return fmt.Sprintf("(origin %d, epoch %d)", s.origin, s.epoch) }

// rawPool is a node's free list of raw-record slices: the readers decode
// raw frames into slices taken from it and the node puts them back once
// folded, so a steady exchange allocates no record slices. A nil pool
// always allocates and drops.
type rawPool chan []tuple.Tuple

func (p rawPool) get() []tuple.Tuple {
	select {
	case b := <-p:
		return b[:0]
	default:
		return nil
	}
}

// put returns b unless the pool is full; done keeps the send from ever
// outliving the node (and is what the donesend analyzer looks for).
func (p rawPool) put(b []tuple.Tuple, done <-chan struct{}) {
	select {
	case p <- b:
	case <-done:
	default:
	}
}

// shortBody is the error for a frame body that ended early: a stream that
// stops mid-frame is io.ErrUnexpectedEOF wherever the cut fell, and
// deadline or reset errors pass through.
func shortBody(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readRawBody appends the count raw records that follow a frame header to
// dst, decoding straight out of r's buffer in runs of at most allocChunk
// bytes; dst grows only to what r has already buffered.
func readRawBody(r *bufio.Reader, dst []tuple.Tuple, count int) ([]tuple.Tuple, error) {
	for count > 0 {
		n := min(count, allocChunk/tuple.RawSize)
		b, err := r.Peek(n * tuple.RawSize)
		if err != nil {
			return nil, shortBody(err)
		}
		dst = slices.Grow(dst, min(count, max(n, r.Buffered()/tuple.RawSize)))
		for ; len(b) > 0; b = b[tuple.RawSize:] {
			dst = append(dst, tuple.DecodeRaw(b))
		}
		r.Discard(n * tuple.RawSize) // cannot fail: the bytes were just peeked
		count -= n
	}
	return dst, nil
}

// readPartialBody is readRawBody for partial records.
func readPartialBody(r *bufio.Reader, count int) ([]tuple.Partial, error) {
	var dst []tuple.Partial
	for count > 0 {
		n := min(count, allocChunk/tuple.PartialSize)
		b, err := r.Peek(n * tuple.PartialSize)
		if err != nil {
			return nil, shortBody(err)
		}
		dst = slices.Grow(dst, min(count, max(n, r.Buffered()/tuple.PartialSize)))
		for ; len(b) > 0; b = b[tuple.PartialSize:] {
			dst = append(dst, tuple.DecodePartial(b))
		}
		r.Discard(n * tuple.PartialSize) // cannot fail: the bytes were just peeked
		count -= n
	}
	return dst, nil
}

// readHello receives a peer's hello and is the one handshake check of both
// modes: the peer must speak this node's mode (tolerant or not) and name a
// node of its n-node cluster.
func readHello(r io.Reader, n int, tolerant bool) (int, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return -1, err
	}
	hello := binary.LittleEndian.Uint32(b[:])
	if peerTolerant := hello&helloTolerantFlag != 0; peerTolerant != tolerant {
		return -1, fmt.Errorf("dist: hello from a node of the other mode (peer tolerant=%v, mixed-mode cluster)", peerTolerant)
	}
	src := hello &^ helloTolerantFlag
	if src >= uint32(n) {
		return -1, fmt.Errorf("dist: hello from out-of-range node %d", src)
	}
	return int(src), nil
}

func putHeader(b []byte, kind frameKind, origin, epoch int, aux uint32, count int) {
	b[0] = byte(kind)
	b[1] = byte(origin)
	binary.LittleEndian.PutUint16(b[2:4], uint16(epoch))
	binary.LittleEndian.PutUint32(b[4:8], aux)
	binary.LittleEndian.PutUint32(b[8:12], uint32(count))
}

// frameBuf returns buf resized to hold need bytes, reallocating only
// when the scratch buffer is too small — the steady state reuses one
// allocation per connection for every frame.
func frameBuf(buf []byte, need int) []byte {
	if cap(buf) < need {
		return make([]byte, need) //aggvet:allow noalloc -- scratch-buffer growth; reallocates only until the per-connection buffer reaches frame size, absent from the steady state
	}
	return buf[:need]
}

// rawFrameInto encodes a whole raw frame of stream (origin, epoch) —
// header and records — into buf, growing it if needed, and returns the
// encoded frame. It refuses a batch larger than maxFrameRecords.
//
//aggvet:noalloc
func rawFrameInto(buf []byte, origin, epoch int, ts []tuple.Tuple) ([]byte, error) {
	if len(ts) > maxFrameRecords {
		return buf, fmt.Errorf("dist: raw frame of %d records exceeds the %d-record wire limit", len(ts), maxFrameRecords) //aggvet:allow noalloc -- cold path: the oversized batch is refused, never encoded
	}
	buf = frameBuf(buf, headerSize+len(ts)*tuple.RawSize)
	putHeader(buf, frameRaw, origin, epoch, 0, len(ts))
	off := headerSize
	for _, t := range ts {
		tuple.EncodeRaw(buf[off:off+tuple.RawSize], t)
		off += tuple.RawSize
	}
	return buf, nil
}

// partialFrameInto encodes a whole partial frame into buf, with the same
// contract as rawFrameInto.
//
//aggvet:noalloc
func partialFrameInto(buf []byte, origin, epoch int, ps []tuple.Partial) ([]byte, error) {
	if len(ps) > maxFrameRecords {
		return buf, fmt.Errorf("dist: partial frame of %d records exceeds the %d-record wire limit", len(ps), maxFrameRecords) //aggvet:allow noalloc -- cold path: the oversized batch is refused, never encoded
	}
	buf = frameBuf(buf, headerSize+len(ps)*tuple.PartialSize)
	putHeader(buf, framePartial, origin, epoch, 0, len(ps))
	off := headerSize
	for _, pt := range ps {
		tuple.EncodePartial(buf[off:off+tuple.PartialSize], pt)
		off += tuple.PartialSize
	}
	return buf, nil
}

// errPeerDown marks a write skipped because the peer was already marked
// down; it is never a fresh failure discovery.
var errPeerDown = errors.New("dist: peer marked down")

// peer is one outgoing connection, shared by every goroutine of the node
// that sends to that peer. A frame that must arrive goes out
// with write, which waits for the connection's lock; an advisory one
// (heartbeat, suspect) with tryWrite, which skips a peer another goroutine
// is writing to. Every write arms a fresh deadline, so a peer that stops
// draining its socket fails the write within timeout instead of blocking
// its writer forever.
//
// A peer is opening until open has flushed its hello, then up until
// markDown runs (only ever in tolerant mode); down is final, whenever
// markDown runs, so a peer the cluster declared dead while this node was
// still dialing it never comes up. A down peer's writes return errPeerDown,
// and the data plane drops that destination's slices (the receiver-side
// slot algebra makes ship-vs-drop equally correct for a dead peer).
// markDown closes the connection without the lock, which a write blocked
// on that connection holds until its deadline, so the write fails at once
// and no caller waits for it.
type peer struct {
	id        int
	timeout   time.Duration
	m         *metrics     // nil when metrics are disabled
	state     atomic.Int32 // peerOpening, peerUp or peerDown
	published atomic.Value // conn, stored by open for markDown's lock-free close

	mu sync.Mutex
	//aggvet:guard mu
	conn net.Conn // nil until open
	//aggvet:guard mu
	w *bufio.Writer
	// buf is the frame-encoding scratch buffer: each data frame is
	// encoded here in full and handed to the writer as one Write, so the
	// steady state is one buffer allocation per connection, not one
	// record-sized Write per tuple.
	//
	//aggvet:guard mu
	buf []byte
}

// A peer's states: the zero value is opening.
const (
	peerOpening int32 = iota
	peerUp
	peerDown
)

// open makes conn the peer's connection and writes node src's hello on it,
// with helloTolerantFlag set by a tolerant node. The peer is up only once
// the hello is flushed, and open holds the lock every write takes until
// then: a frame written ahead of the hello would be read as one and refused
// as the other mode's. A peer marked down before that stays down: open
// returns errPeerDown. On failure the connection is closed.
func (p *peer) open(conn net.Conn, src int, tolerant bool) error {
	if tolerant {
		src |= helloTolerantFlag
	}
	p.published.Store(conn)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn, p.w = conn, bufio.NewWriterSize(conn, 1<<16)
	if err := p.put(frame{kind: frameHello, aux: uint32(src)}); err != nil {
		conn.Close()
		return err
	}
	if !p.state.CompareAndSwap(peerOpening, peerUp) {
		conn.Close()
		return errPeerDown
	}
	return nil
}

// markDown marks the peer down for good and closes its connection, if open
// has published one.
func (p *peer) markDown() {
	if p.state.Swap(peerDown) == peerDown {
		return
	}
	if c, ok := p.published.Load().(net.Conn); ok {
		c.Close()
	}
}

// write sends f, waiting for the peer's lock: for frames that must arrive.
func (p *peer) write(f frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.put(f)
}

// tryWrite sends f unless the peer is down or its lock is busy, and reports
// whether it did: for advisory frames, so a write blocked on one stuck peer
// delays no heartbeat or complaint behind it.
func (p *peer) tryWrite(f frame) (bool, error) {
	if p.state.Load() != peerUp || !p.mu.TryLock() {
		return false, nil
	}
	defer p.mu.Unlock()
	return true, p.put(f)
}

// put encodes f whole into buf, so the caller's records are not kept,
// writes it and counts it in the send-side metrics; only open's hello goes
// to a peer that is not up. A hello or control frame is flushed, never
// stuck behind buffered data: the accept side identifies the peer (and
// arms its read deadline) before any data flush, and end of stream or
// phase, heartbeats and assigns arrive at once.
//
//aggvet:holds p.mu
func (p *peer) put(f frame) error {
	if f.kind != frameHello && p.state.Load() != peerUp {
		return errPeerDown
	}
	if p.timeout > 0 {
		p.conn.SetWriteDeadline(time.Now().Add(p.timeout))
	}
	var err error
	switch f.kind {
	case frameHello:
		p.buf = binary.LittleEndian.AppendUint32(p.buf[:0], f.aux)
	case frameRaw:
		p.buf, err = rawFrameInto(p.buf, f.origin, f.epoch, f.raw)
	case framePartial:
		p.buf, err = partialFrameInto(p.buf, f.origin, f.epoch, f.partials)
	case frameEOS, frameEOP, frameHeartbeat, frameSuspect, frameAssign, frameEvict, frameDone, frameFinish:
		p.buf = frameBuf(p.buf, headerSize)
		putHeader(p.buf, f.kind, f.origin, f.epoch, f.aux, 0)
	}
	if err == nil {
		_, err = p.w.Write(p.buf)
	}
	if err == nil && f.kind != frameRaw && f.kind != framePartial {
		err = p.w.Flush()
	}
	if err != nil {
		p.m.ioError(PhaseWrite, err)
		return err
	}
	p.m.sent(p.id, f.kind, len(f.raw)+len(f.partials))
	return nil
}

// frame is one decoded wire frame.
type frame struct {
	kind     frameKind
	origin   int
	epoch    int
	aux      uint32
	raw      []tuple.Tuple
	partials []tuple.Partial
}

func (f frame) stream() streamID { return streamID{origin: f.origin, epoch: f.epoch} }

// readFrame decodes the next frame; a raw frame's records land in a slice
// from pool, which the consumer puts back. A peek of the header (a header
// array handed to io.ReadFull escapes: one allocation per frame) is
// io.EOF for a stream that ends before the first byte and
// io.ErrUnexpectedEOF inside the header — io.ReadFull's contract.
func readFrame(r *bufio.Reader, pool rawPool) (frame, error) {
	hdr, err := r.Peek(headerSize)
	if err != nil {
		if len(hdr) > 0 {
			err = shortBody(err)
		}
		return frame{}, err
	}
	f := frame{
		kind:   frameKind(hdr[0]),
		origin: int(hdr[1]),
		epoch:  int(binary.LittleEndian.Uint16(hdr[2:4])),
		aux:    binary.LittleEndian.Uint32(hdr[4:8]),
	}
	count := int(binary.LittleEndian.Uint32(hdr[8:12]))
	r.Discard(headerSize) // cannot fail: the bytes were just peeked
	if count < 0 || count > maxFrameRecords {
		return frame{}, fmt.Errorf("dist: frame count %d out of range", count)
	}
	if f.aux != 0 && (f.kind == frameRaw || f.kind == framePartial) {
		return frame{}, fmt.Errorf("dist: data frame %d with aux %#x", f.kind, f.aux)
	}
	switch f.kind {
	case frameEOS, frameEOP, frameHeartbeat, frameSuspect, frameAssign, frameEvict, frameDone, frameFinish:
		if count != 0 {
			err = fmt.Errorf("dist: control frame %d with count %d", f.kind, count)
		}
	case frameRaw:
		f.raw, err = readRawBody(r, pool.get(), count)
	case framePartial:
		f.partials, err = readPartialBody(r, count)
	default:
		return frame{}, fmt.Errorf("dist: unknown frame kind %d", f.kind)
	}
	if err != nil {
		return frame{}, err
	}
	return f, nil
}
