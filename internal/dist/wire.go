package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
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
// raw frames into slices taken from it and the control loop puts them back
// once folded, so a steady exchange allocates no record slices. A nil
// pool always allocates and drops.
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

// writeHello sends the connection's hello: the source node id, with
// helloTolerantFlag set by a tolerant node.
func writeHello(w io.Writer, hello int) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(hello))
	_, err := w.Write(b[:])
	return err
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

// writeControl writes a record-less frame and flushes, so control traffic
// (end of stream or phase, heartbeats, assigns) is never stuck behind
// buffered data.
func writeControl(w *bufio.Writer, kind frameKind, origin, epoch int, aux uint32) error {
	var b [headerSize]byte
	putHeader(b[:], kind, origin, epoch, aux, 0)
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	return w.Flush()
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

// peer is the writer inside a tpeer: one outgoing connection, or the
// node's own self slot. It holds the conn for deadline control, the
// buffered writer for framing, and the per-frame write timeout. Every
// write arms a fresh deadline, so a peer that stops draining its socket
// (backpressure hang) fails the write within timeout instead of blocking
// the scan forever.
type peer struct {
	id      int
	conn    net.Conn
	w       *bufio.Writer
	timeout time.Duration
	m       *metrics // nil when metrics are disabled
	// buf is the frame-encoding scratch buffer: each data frame is
	// encoded here in full and handed to the writer as one Write, so the
	// steady state is one buffer allocation per connection, not one
	// record-sized Write per tuple.
	buf []byte
	// self is set on the node's own entry only, which has no connection.
	self selfSlot
}

// selfSlot is where a node's own share of the exchange goes, in either
// mode: every write to the node's own entry hands its frame, records and
// all, straight to the node's control loop as an event, never through a
// socket (paper §5 — a node merges its own partition of the exchange
// locally). Nothing is encoded or decoded and the wire metrics never see
// it. Once the node is cancelled a post fails the way a write to a closed
// connection does.
type selfSlot func(tevent) error

func (p *peer) arm() {
	if p.timeout > 0 {
		p.conn.SetWriteDeadline(time.Now().Add(p.timeout))
	}
}

// count wraps a frame write with the send-side metrics: bytes and
// frames on success, deadline classification on failure.
func (p *peer) count(kind frameKind, records int, err error) error {
	if err != nil {
		p.m.ioError(PhaseWrite, err)
		return err
	}
	p.m.sent(p.id, kind, records)
	return nil
}

func (p *peer) writeHello(src int) error {
	p.arm()
	if err := writeHello(p.w, src); err != nil {
		return p.count(frameHello, 0, err)
	}
	// Flush so the hello doubles as a handshake: the accept side can
	// identify the peer (and apply its read deadline) immediately instead
	// of waiting for the first data flush.
	return p.count(frameHello, 0, p.w.Flush())
}

// writeRaw ships ts as one raw frame of stream s. A socket write encodes
// ts and does not keep it; the self slot keeps it, and the control loop puts
// it in the node's raw pool once folded.
func (p *peer) writeRaw(s streamID, ts []tuple.Tuple) error {
	if p.self != nil {
		return p.self(tevent{f: frame{kind: frameRaw, origin: s.origin, epoch: s.epoch, raw: ts}})
	}
	p.arm()
	var err error
	if p.buf, err = rawFrameInto(p.buf, s.origin, s.epoch, ts); err == nil {
		_, err = p.w.Write(p.buf)
	}
	return p.count(frameRaw, len(ts), err)
}

func (p *peer) writePartials(s streamID, ps []tuple.Partial) error {
	if p.self != nil {
		return p.self(tevent{f: frame{kind: framePartial, origin: s.origin, epoch: s.epoch, partials: ps}})
	}
	p.arm()
	var err error
	if p.buf, err = partialFrameInto(p.buf, s.origin, s.epoch, ps); err == nil {
		_, err = p.w.Write(p.buf)
	}
	return p.count(framePartial, len(ps), err)
}

// control sends a record-less frame of stream s with immediate aux and
// flushes.
func (p *peer) control(kind frameKind, s streamID, aux uint32) error {
	if p.self != nil {
		return p.self(tevent{f: frame{kind: kind, origin: s.origin, epoch: s.epoch, aux: aux}})
	}
	p.arm()
	return p.count(kind, 0, writeControl(p.w, kind, s.origin, s.epoch, aux))
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
