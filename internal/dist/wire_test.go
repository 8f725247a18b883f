package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"parallelagg/internal/tuple"
)

func readBack(t *testing.T, buf []byte) (frame, error) {
	t.Helper()
	return readFrame(bufio.NewReader(bytes.NewReader(buf)), nil)
}

// writeHello writes a hello as a peer's open does.
func writeHello(w io.Writer, hello int) error {
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, uint32(hello)))
	return err
}

// writeControl writes and flushes a record-less frame as a peer's put does.
func writeControl(w *bufio.Writer, kind frameKind, origin, epoch int, aux uint32) error {
	if _, err := w.Write(header(kind, origin, epoch, aux, 0)); err != nil {
		return err
	}
	return w.Flush()
}

// header builds a bare frame header.
func header(kind frameKind, origin, epoch int, aux uint32, count int) []byte {
	b := make([]byte, headerSize)
	putHeader(b, kind, origin, epoch, aux, count)
	return b
}

// A fail-fast stream: a raw frame tagged with the sender and epoch 0,
// then its end-of-stream.
func TestWireRawRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := []tuple.Tuple{{Key: 1, Val: -2}, {Key: 3, Val: 4}}
	buf.Write(must(rawFrameInto(nil, 1, 0, in)))
	if err := writeControl(bufio.NewWriter(&buf), frameEOS, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	f, err := readFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameRaw || f.stream() != (streamID{origin: 1}) || f.aux != 0 {
		t.Fatalf("header = %+v", f)
	}
	if err := sameRecords(f.raw, in); err != nil {
		t.Fatal(err)
	}
	f, err = readFrame(r, nil)
	if err != nil || f.kind != frameEOS || f.origin != 1 {
		t.Fatalf("EOS frame = %+v, %v", f, err)
	}
}

func TestWirePartialRoundTrip(t *testing.T) {
	in := []tuple.Partial{{Key: 9, State: tuple.NewState(7)}}
	f, err := readBack(t, must(partialFrameInto(nil, 0, 0, in)))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != framePartial {
		t.Fatalf("frame = %+v", f)
	}
	if err := sameRecords(f.partials, in); err != nil {
		t.Fatal(err)
	}
}

// A recovery stream carries the re-executed partition as origin and the
// supervisor's attempt as epoch.
func TestTolerantRawFrameRoundTrip(t *testing.T) {
	ts := []tuple.Tuple{{Key: 1, Val: 10}, {Key: 77, Val: -3}, {Key: 1 << 20, Val: 0}}
	f, err := readBack(t, must(rawFrameInto(nil, 3, 2, ts)))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameRaw || f.stream() != (streamID{origin: 3, epoch: 2}) {
		t.Fatalf("header = kind %d stream %v", f.kind, f.stream())
	}
	if err := sameRecords(f.raw, ts); err != nil {
		t.Fatal(err)
	}
}

func TestTolerantPartialFrameRoundTrip(t *testing.T) {
	ps := []tuple.Partial{
		{Key: 5, State: tuple.NewState(42)},
		{Key: 9, State: tuple.NewState(-1)},
	}
	// The largest origin and epoch the header can carry.
	f, err := readBack(t, must(partialFrameInto(nil, maxOrigins-1, 1<<16-1, ps)))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != framePartial || f.stream() != (streamID{origin: maxOrigins - 1, epoch: 1<<16 - 1}) {
		t.Fatalf("header = kind %d stream %v", f.kind, f.stream())
	}
	if err := sameRecords(f.partials, ps); err != nil {
		t.Fatal(err)
	}
}

func TestTolerantControlFrameRoundTrip(t *testing.T) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if err := writeControl(w, frameAssign, 2, 3, uint32(1)|assignDeadFlag); err != nil {
		t.Fatal(err)
	}
	// writeControl flushes; the frame must already be on the wire.
	if out.Len() != headerSize {
		t.Fatalf("wrote %d bytes, want %d", out.Len(), headerSize)
	}
	f, err := readBack(t, out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameAssign || f.origin != 2 || f.epoch != 3 {
		t.Fatalf("header = %+v", f)
	}
	if f.aux&0xFFFF != 1 || f.aux&assignDeadFlag == 0 {
		t.Fatalf("aux = %#x", f.aux)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"unknown kind":       header(99, 0, 0, 0, 0),
		"hello kind":         header(frameHello, 0, 0, 0, 0),
		"eos with count":     header(frameEOS, 0, 0, 0, 1),
		"huge count":         header(frameRaw, 0, 0, 0, 0x7fffffff),
		"truncated header":   header(frameEOS, 0, 0, 0, 0)[:7],
		"truncated":          append(header(frameRaw, 0, 0, 0, 2), 1, 2, 3),
		"raw with aux":       append(header(frameRaw, 0, 0, 1, 1), make([]byte, tuple.RawSize)...),
		"partial with aux":   header(framePartial, 0, 0, 1<<31, 0),
		"old 5-byte raw":     {byte(frameRaw), 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		"old 5-byte eos+eos": {byte(frameEOS), 0, 0, 0, 0, byte(frameEOS), 0, 0, 0, 0},
	}
	for name, b := range cases {
		if f, err := readBack(t, b); err == nil {
			t.Errorf("%s: accepted as %+v", name, f)
		}
	}
}

func TestTolerantFrameRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"unknown kind", header(99, 0, 0, 0, 0), "unknown frame kind"},
		{"oversized count", header(frameRaw, 0, 0, 0, 1<<24), "out of range"},
		{"heartbeat with payload", header(frameHeartbeat, 0, 0, 0, 1), "control frame"},
		{"assign with payload", header(frameAssign, 0, 0, 0, 3), "control frame"},
		{"finish with payload", header(frameFinish, 0, 0, 0, 1), "control frame"},
		{"partial with aux", header(framePartial, 0, 0, 7, 1), "with aux"},
		{"truncated raw", header(frameRaw, 0, 0, 0, 2), ""}, // body missing: io error
	}
	for _, tc := range cases {
		_, err := readBack(t, tc.buf)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.name, err, tc.want)
		}
	}
}

// The encoders must enforce maxFrameRecords too: a frame the decoder
// would reject may never reach the wire, and nothing may be written
// before the check (a partial frame would corrupt the stream).
func TestWriteSideFrameBound(t *testing.T) {
	over := maxFrameRecords + 1
	var cw countingWriter
	p := &peer{id: 1, w: bufio.NewWriterSize(&cw, 16)}
	p.state.Store(peerUp)
	if err := p.write(frame{kind: frameRaw, raw: make([]tuple.Tuple, over)}); err == nil {
		t.Error("raw frame over the record limit accepted")
	}
	if err := p.write(frame{kind: framePartial, partials: make([]tuple.Partial, over)}); err == nil {
		t.Error("partial frame over the record limit accepted")
	}
	if p.w.Flush(); cw.calls != 0 {
		t.Errorf("rejected frames wrote %d times", cw.calls)
	}
	// Exactly at the bound must be accepted by encoder and decoder alike.
	buf, err := rawFrameInto(nil, 0, 0, make([]tuple.Tuple, maxFrameRecords))
	if err != nil {
		t.Fatalf("raw frame at the record limit rejected: %v", err)
	}
	f, err := readFrame(bufio.NewReaderSize(bytes.NewReader(buf), 1<<16), nil)
	if err != nil || len(f.raw) != maxFrameRecords {
		t.Fatalf("limit-sized frame: %d records, %v", len(f.raw), err)
	}
}

// Each data frame must reach the writer as exactly one Write call — the
// single-buffer encode is the zero-allocation data plane's contract.
func TestFrameSingleWrite(t *testing.T) {
	var cw countingWriter
	p := &peer{id: 1, w: bufio.NewWriterSize(&cw, 16)}
	p.state.Store(peerUp)
	if err := p.write(frame{kind: frameRaw, origin: 1, raw: []tuple.Tuple{{Key: 1, Val: 2}, {Key: 3, Val: 4}}}); err != nil {
		t.Fatal(err)
	}
	if cw.calls != 1 {
		t.Errorf("raw frame took %d Write calls, want 1", cw.calls)
	}
	cw.calls = 0
	if err := p.write(frame{kind: framePartial, origin: 1, partials: []tuple.Partial{{Key: 9, State: tuple.NewState(7)}}}); err != nil {
		t.Fatal(err)
	}
	if cw.calls != 1 {
		t.Errorf("partial frame took %d Write calls, want 1", cw.calls)
	}
}

type countingWriter struct{ calls int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	return len(p), nil
}

// readHello is the one handshake check of both modes: the peer's mode
// must match and its id must name a node of the cluster.
func TestHelloRoundTrip(t *testing.T) {
	cases := []struct {
		hello    int
		tolerant bool
		want     int // -1: refused
	}{
		{42, false, 42},
		{helloTolerantFlag | 42, true, 42},
		{0, false, 0},
		{helloTolerantFlag | 42, false, -1}, // tolerant peer, fail-fast node
		{42, true, -1},                      // fail-fast peer, tolerant node
		{43, false, -1},                     // out of range
		{helloTolerantFlag | 43, true, -1},
		{1 << 31, false, -1},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := writeHello(&buf, c.hello); err != nil {
			t.Fatal(err)
		}
		got, err := readHello(&buf, 43, c.tolerant)
		if c.want < 0 && err == nil || c.want >= 0 && (err != nil || got != c.want) {
			t.Errorf("hello %#x on a tolerant=%v node = %d, %v; want %d", c.hello, c.tolerant, got, err, c.want)
		}
	}
}

func TestPhaseCodeRoundTrip(t *testing.T) {
	phases := []Phase{PhaseDial, PhaseHello, PhaseAccept, PhaseRead, PhaseWrite, PhaseMerge, PhaseHeartbeat}
	seen := make(map[uint32]bool)
	for _, p := range phases {
		c := phaseCode(p)
		if c == 0 {
			t.Errorf("phase %s has no code", p)
		}
		if seen[c] {
			t.Errorf("phase %s shares code %d", p, c)
		}
		seen[c] = true
		if got := codePhase(c); got != p {
			t.Errorf("codePhase(phaseCode(%s)) = %s", p, got)
		}
	}
	if got := codePhase(0); got != Phase("unknown") {
		t.Errorf("codePhase(0) = %s", got)
	}
}

// peer writes arm a fresh deadline per frame: a connection nobody drains
// must fail the write within the timeout instead of blocking forever.
func TestPeerWriteDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	p := &peer{id: 1, conn: a, w: bufio.NewWriterSize(a, 8), timeout: 50 * time.Millisecond}
	p.state.Store(peerUp)
	start := time.Now()
	err := p.write(frame{kind: frameEOS}) // flushes into a pipe with no reader
	if err == nil {
		t.Fatal("write to undrained pipe succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline took %v to fire", d)
	}
}

// A zero timeout must not arm deadlines (the opt-out path).
func TestPeerZeroTimeoutWrites(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	p := &peer{id: 0, timeout: 0}
	if err := p.open(a, 3, false); err != nil {
		t.Fatal(err)
	}
	if err := p.write(frame{kind: frameEOS}); err != nil {
		t.Fatal(err)
	}
}

// Property: any batch of tuples survives the wire encoding.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(keys []uint16, vals []int32, origin uint8, epoch uint16) bool {
		n := min(len(keys), len(vals))
		in := make([]tuple.Tuple, n)
		for i := 0; i < n; i++ {
			in[i] = tuple.Tuple{Key: tuple.Key(keys[i]), Val: int64(vals[i])}
		}
		buf, err := rawFrameInto(nil, int(origin), int(epoch), in)
		if err != nil {
			return false
		}
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(buf)), nil)
		return err == nil && fr.stream() == streamID{origin: int(origin), epoch: int(epoch)} && sameRecords(fr.raw, in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
