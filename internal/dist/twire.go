package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"

	"parallelagg/internal/tuple"
)

// Tolerant-mode wire protocol (Config.Tolerate). The fail-fast v1 framing
// in wire.go is untouched; tolerant nodes speak an extended dialect in
// which every frame carries an (origin, epoch) stream tag so the merge
// side can attribute data to a re-execution attempt and discard zombie
// frames (DESIGN.md §11).
//
//	hello:  [u32 helloTolerantFlag|src]
//	frame:  [u8 kind][u8 origin][u16 epoch][u32 aux][u32 count][records]
//
// origin names the input partition whose data the stream carries (NOT the
// sender: a recovery worker ships partition d's re-execution as origin d).
// epoch is the supervisor-assigned attempt number (0 = the primary scan).
// aux is a kind-specific immediate: heartbeat progress, assign owner and
// flags, done watermark. Record encodings are identical to v1.
const (
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

// helloTolerantFlag marks a hello as the tolerant dialect so a
// mixed-mode cluster fails the handshake instead of desynchronizing on
// the first data frame.
const helloTolerantFlag = 0x40000000

// assignDeadFlag in frameAssign's aux marks a dead takeover (vs. a
// speculative duplicate execution).
const assignDeadFlag = 1 << 16

const tHeaderSize = 12

// phaseCode compresses a Phase into the u32 aux of a suspect frame.
func phaseCode(p Phase) uint32 {
	switch p {
	case PhaseDial:
		return 1
	case PhaseHello:
		return 2
	case PhaseAccept:
		return 3
	case PhaseRead:
		return 4
	case PhaseWrite:
		return 5
	case PhaseMerge:
		return 6
	case PhaseHeartbeat:
		return 7
	default:
		return 0
	}
}

func codePhase(c uint32) Phase {
	switch c {
	case 1:
		return PhaseDial
	case 2:
		return PhaseHello
	case 3:
		return PhaseAccept
	case 4:
		return PhaseRead
	case 5:
		return PhaseWrite
	case 6:
		return PhaseMerge
	case 7:
		return PhaseHeartbeat
	default:
		return Phase("unknown")
	}
}

// tframe is one decoded tolerant-mode frame.
type tframe struct {
	kind     frameKind
	origin   int
	epoch    int
	aux      uint32
	raw      []tuple.Tuple
	partials []tuple.Partial
}

func (f tframe) stream() streamID { return streamID{origin: f.origin, epoch: f.epoch} }

// streamID identifies one shipment attempt: which input partition the
// data derives from, and which supervisor-assigned attempt produced it.
type streamID struct {
	origin int
	epoch  int
}

func (s streamID) String() string { return fmt.Sprintf("(origin %d, epoch %d)", s.origin, s.epoch) }

func putTHeader(b []byte, kind frameKind, origin, epoch int, aux uint32, count int) {
	b[0] = byte(kind)
	b[1] = byte(origin)
	binary.LittleEndian.PutUint16(b[2:4], uint16(epoch))
	binary.LittleEndian.PutUint32(b[4:8], aux)
	binary.LittleEndian.PutUint32(b[8:12], uint32(count))
}

// writeTControl writes a record-less tolerant frame and flushes, so
// control traffic (heartbeats, assigns, EOS) is never stuck behind
// buffered data.
func writeTControl(w *bufio.Writer, kind frameKind, origin, epoch int, aux uint32) error {
	var b [tHeaderSize]byte
	putTHeader(b[:], kind, origin, epoch, aux, 0)
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	return w.Flush()
}

// tRawFrameInto encodes a tagged raw frame into buf (growing it if
// needed), with the same record-count bound as v1.
//
//aggvet:noalloc
func tRawFrameInto(buf []byte, origin, epoch int, ts []tuple.Tuple) ([]byte, error) {
	if len(ts) > maxFrameRecords {
		return buf, fmt.Errorf("dist: raw frame of %d records exceeds the %d-record wire limit", len(ts), maxFrameRecords) //aggvet:allow noalloc -- cold path: the oversized batch is refused, never encoded
	}
	buf = frameBuf(buf, tHeaderSize+len(ts)*tuple.RawSize)
	putTHeader(buf, frameRaw, origin, epoch, 0, len(ts))
	off := tHeaderSize
	for _, t := range ts {
		tuple.EncodeRaw(buf[off:off+tuple.RawSize], t)
		off += tuple.RawSize
	}
	return buf, nil
}

// tPartialFrameInto encodes a tagged partial frame, same contract.
//
//aggvet:noalloc
func tPartialFrameInto(buf []byte, origin, epoch int, ps []tuple.Partial) ([]byte, error) {
	if len(ps) > maxFrameRecords {
		return buf, fmt.Errorf("dist: partial frame of %d records exceeds the %d-record wire limit", len(ps), maxFrameRecords) //aggvet:allow noalloc -- cold path: the oversized batch is refused, never encoded
	}
	buf = frameBuf(buf, tHeaderSize+len(ps)*tuple.PartialSize)
	putTHeader(buf, framePartial, origin, epoch, 0, len(ps))
	off := tHeaderSize
	for _, pt := range ps {
		tuple.EncodePartial(buf[off:off+tuple.PartialSize], pt)
		off += tuple.PartialSize
	}
	return buf, nil
}

// readTFrame decodes the next tolerant-mode frame with the same
// hostile-input guards, record-body decoders and raw-slice pool as v1.
func readTFrame(r *bufio.Reader, pool rawPool) (tframe, error) {
	hdr, err := peekHeader(r, tHeaderSize)
	if err != nil {
		return tframe{}, err
	}
	f := tframe{
		kind:   frameKind(hdr[0]),
		origin: int(hdr[1]),
		epoch:  int(binary.LittleEndian.Uint16(hdr[2:4])),
		aux:    binary.LittleEndian.Uint32(hdr[4:8]),
	}
	count := int(binary.LittleEndian.Uint32(hdr[8:12]))
	r.Discard(tHeaderSize) // cannot fail: the bytes were just peeked
	if count < 0 || count > maxFrameRecords {
		return tframe{}, fmt.Errorf("dist: frame count %d out of range", count)
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
		return tframe{}, fmt.Errorf("dist: unknown frame kind %d", f.kind)
	}
	if err != nil {
		return tframe{}, err
	}
	return f, nil
}
