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

// Wire protocol: length-delimited frames over TCP.
//
//	hello frame (once per connection):  [u32 srcID]
//	data frame:                         [u8 kind][u32 count][count records]
//
// Raw records are tuple.RawSize bytes, partial records tuple.PartialSize
// bytes, in the same little-endian layout the simulator's pages use. An
// EOS frame has kind frameEOS and count 0.
//
// frameKind is the dispatch tag for both dialects (wire.go and
// twire.go declare its constants). It is marked exhaustive: every
// switch over a frameKind must either handle all declared kinds or
// reject unknown ones with an error-returning default, so adding a
// control frame cannot silently fall through an old dispatch point.
//
//aggvet:exhaustive
type frameKind byte

const (
	frameRaw     frameKind = 1
	framePartial frameKind = 2
	frameEOS     frameKind = 3
	// frameEOP carries Adaptive Repartitioning's end-of-phase broadcast.
	frameEOP frameKind = 4
)

// maxFrameRecords bounds a frame so a corrupt length cannot allocate
// unbounded memory. The bound is enforced on BOTH sides of the wire: the
// decoder rejects oversized counts from a hostile or corrupt peer, and
// the frame writers refuse to emit a batch that a conforming decoder
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

// rawPool is a node's free list of raw-record slices: the readers decode
// raw frames into slices taken from it and the merge side puts them back
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

// peekHeader returns the next n bytes of r in place (a header array handed
// to io.ReadFull escapes: one allocation per frame) without consuming
// them. A stream that ends before the first byte is io.EOF, inside the
// header io.ErrUnexpectedEOF — io.ReadFull's contract.
func peekHeader(r *bufio.Reader, n int) ([]byte, error) {
	hdr, err := r.Peek(n)
	if err != nil && len(hdr) > 0 {
		err = shortBody(err)
	}
	return hdr, err
}

// readRawBody appends the count raw records that follow a frame header to
// dst, decoding straight out of r's buffer in runs of at most allocChunk
// bytes; dst grows only to what r has already buffered. Both dialects
// decode through it.
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

// writeHello sends the connection's source node id.
func writeHello(w io.Writer, src int) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(src))
	_, err := w.Write(b[:])
	return err
}

// readHello receives the peer's node id.
func readHello(r io.Reader) (int, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(b[:])), nil
}

func writeHeader(w io.Writer, kind frameKind, count int) error {
	var b [5]byte
	b[0] = byte(kind)
	binary.LittleEndian.PutUint32(b[1:], uint32(count))
	_, err := w.Write(b[:])
	return err
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

// rawFrameInto encodes a whole raw frame (header + records) into buf,
// growing it if needed, and returns the encoded frame. It refuses a
// batch larger than maxFrameRecords.
//
//aggvet:noalloc
func rawFrameInto(buf []byte, ts []tuple.Tuple) ([]byte, error) {
	if len(ts) > maxFrameRecords {
		return buf, fmt.Errorf("dist: raw frame of %d records exceeds the %d-record wire limit", len(ts), maxFrameRecords) //aggvet:allow noalloc -- cold path: the oversized batch is refused, never encoded
	}
	buf = frameBuf(buf, 5+len(ts)*tuple.RawSize)
	buf[0] = byte(frameRaw)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(ts)))
	off := 5
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
func partialFrameInto(buf []byte, ps []tuple.Partial) ([]byte, error) {
	if len(ps) > maxFrameRecords {
		return buf, fmt.Errorf("dist: partial frame of %d records exceeds the %d-record wire limit", len(ps), maxFrameRecords) //aggvet:allow noalloc -- cold path: the oversized batch is refused, never encoded
	}
	buf = frameBuf(buf, 5+len(ps)*tuple.PartialSize)
	buf[0] = byte(framePartial)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(ps)))
	off := 5
	for _, pt := range ps {
		tuple.EncodePartial(buf[off:off+tuple.PartialSize], pt)
		off += tuple.PartialSize
	}
	return buf, nil
}

// writeRawFrame sends a batch of raw tuples as one Write call.
func writeRawFrame(w io.Writer, ts []tuple.Tuple) error {
	buf, err := rawFrameInto(nil, ts)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// writePartialFrame sends a batch of partial aggregates as one Write call.
func writePartialFrame(w io.Writer, ps []tuple.Partial) error {
	buf, err := partialFrameInto(nil, ps)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// writeEOSFrame signals end of stream and flushes.
func writeEOSFrame(w *bufio.Writer) error {
	if err := writeHeader(w, frameEOS, 0); err != nil {
		return err
	}
	return w.Flush()
}

// writeEOPFrame broadcasts Adaptive Repartitioning's end-of-phase signal
// and flushes so it is not stuck behind buffered data.
func writeEOPFrame(w *bufio.Writer) error {
	if err := writeHeader(w, frameEOP, 0); err != nil {
		return err
	}
	return w.Flush()
}

// peer is one outgoing connection: the conn for deadline control, the
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
	// self is set on the node's own entry only, which has no connection:
	// every write hands a copy of the frame to the node's merge loop.
	self *selfSlot
}

// selfSlot is where a fail-fast node's own share of the repartitioned
// stream goes: straight onto the merge loop's channel, never through a
// socket (paper §5 — a node merges its own partition of the exchange
// locally). The wire metrics therefore never see it. Once the node is
// cancelled a post fails the way a write to a closed connection does.
type selfSlot struct {
	frames chan<- incoming
	done   <-chan struct{}
	pool   rawPool
}

func (s *selfSlot) post(f frame) error {
	select {
	case s.frames <- incoming{f: f}:
		return nil
	case <-s.done:
		return net.ErrClosed
	}
}

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

// writeRaw ships ts as one raw frame. Like every write below it does not
// keep ts: a socket write encodes it, the self slot copies it.
func (p *peer) writeRaw(ts []tuple.Tuple) error {
	if p.self != nil {
		return p.self.post(frame{kind: frameRaw, raw: append(p.self.pool.get(), ts...)})
	}
	p.arm()
	var err error
	if p.buf, err = rawFrameInto(p.buf, ts); err == nil {
		_, err = p.w.Write(p.buf)
	}
	return p.count(frameRaw, len(ts), err)
}

func (p *peer) writePartials(ps []tuple.Partial) error {
	if p.self != nil {
		return p.self.post(frame{kind: framePartial, partials: slices.Clone(ps)})
	}
	p.arm()
	var err error
	if p.buf, err = partialFrameInto(p.buf, ps); err == nil {
		_, err = p.w.Write(p.buf)
	}
	return p.count(framePartial, len(ps), err)
}

func (p *peer) writeEOS() error {
	if p.self != nil {
		return p.self.post(frame{kind: frameEOS})
	}
	p.arm()
	return p.count(frameEOS, 0, writeEOSFrame(p.w))
}

func (p *peer) writeEOP() error {
	if p.self != nil {
		return p.self.post(frame{kind: frameEOP})
	}
	p.arm()
	return p.count(frameEOP, 0, writeEOPFrame(p.w))
}

// frame is one decoded wire frame.
type frame struct {
	kind     frameKind
	raw      []tuple.Tuple
	partials []tuple.Partial
}

// readFrame decodes the next frame; a raw frame's records land in a slice
// from pool, which the consumer puts back.
func readFrame(r *bufio.Reader, pool rawPool) (frame, error) {
	hdr, err := peekHeader(r, 5)
	if err != nil {
		return frame{}, err
	}
	f := frame{kind: frameKind(hdr[0])}
	count := int(binary.LittleEndian.Uint32(hdr[1:]))
	r.Discard(5) // cannot fail: the bytes were just peeked
	if count < 0 || count > maxFrameRecords {
		return frame{}, fmt.Errorf("dist: frame count %d out of range", count)
	}
	switch f.kind {
	case frameEOS, frameEOP:
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
