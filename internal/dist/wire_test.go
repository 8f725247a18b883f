package dist

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"testing/quick"
	"time"

	"parallelagg/internal/tuple"
)

func TestWireRawRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := []tuple.Tuple{{Key: 1, Val: -2}, {Key: 3, Val: 4}}
	if err := writeRawFrame(w, in); err != nil {
		t.Fatal(err)
	}
	if err := writeEOSFrame(w); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	f, err := readFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameRaw || len(f.raw) != 2 || f.raw[0] != in[0] || f.raw[1] != in[1] {
		t.Fatalf("frame = %+v", f)
	}
	f, err = readFrame(r, nil)
	if err != nil || f.kind != frameEOS {
		t.Fatalf("EOS frame = %+v, %v", f, err)
	}
}

func TestWirePartialRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := []tuple.Partial{{Key: 9, State: tuple.NewState(7)}}
	if err := writePartialFrame(w, in); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	f, err := readFrame(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != framePartial || len(f.partials) != 1 || f.partials[0] != in[0] {
		t.Fatalf("frame = %+v", f)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"unknown kind":   {9, 0, 0, 0, 0},
		"eos with count": {byte(frameEOS), 1, 0, 0, 0},
		"huge count":     {byte(frameRaw), 0xff, 0xff, 0xff, 0x7f},
		"truncated":      {byte(frameRaw), 2, 0, 0, 0, 1, 2, 3},
	}
	for name, b := range cases {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The writers must enforce maxFrameRecords too: a frame the decoder
// would reject may never reach the wire, and nothing may be written
// before the check (a partial frame would corrupt the stream).
func TestWriteSideFrameBound(t *testing.T) {
	over := maxFrameRecords + 1
	var buf bytes.Buffer
	if err := writeRawFrame(&buf, make([]tuple.Tuple, over)); err == nil {
		t.Error("raw frame over the record limit accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected raw frame wrote %d bytes", buf.Len())
	}
	if err := writePartialFrame(&buf, make([]tuple.Partial, over)); err == nil {
		t.Error("partial frame over the record limit accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected partial frame wrote %d bytes", buf.Len())
	}
	// Exactly at the bound must be accepted by writer and reader alike.
	w := bufio.NewWriterSize(&buf, 1<<16)
	if err := writeRawFrame(w, make([]tuple.Tuple, maxFrameRecords)); err != nil {
		t.Fatalf("raw frame at the record limit rejected: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bufio.NewReader(&buf), nil)
	if err != nil || len(f.raw) != maxFrameRecords {
		t.Fatalf("limit-sized frame: %d records, %v", len(f.raw), err)
	}
}

// Each data frame must reach the writer as exactly one Write call — the
// single-buffer encode is the zero-allocation data plane's contract.
func TestFrameSingleWrite(t *testing.T) {
	var cw countingWriter
	if err := writeRawFrame(&cw, []tuple.Tuple{{Key: 1, Val: 2}, {Key: 3, Val: 4}}); err != nil {
		t.Fatal(err)
	}
	if cw.calls != 1 {
		t.Errorf("raw frame took %d Write calls, want 1", cw.calls)
	}
	cw.calls = 0
	if err := writePartialFrame(&cw, []tuple.Partial{{Key: 9, State: tuple.NewState(7)}}); err != nil {
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

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, 42); err != nil {
		t.Fatal(err)
	}
	got, err := readHello(&buf)
	if err != nil || got != 42 {
		t.Fatalf("hello = %d, %v", got, err)
	}
}

// peer writes arm a fresh deadline per frame: a connection nobody drains
// must fail the write within the timeout instead of blocking forever.
func TestPeerWriteDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	p := &peer{id: 1, conn: a, w: bufio.NewWriterSize(a, 8), timeout: 50 * time.Millisecond}
	start := time.Now()
	err := p.writeEOS() // flushes into a pipe with no reader
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
	p := &peer{id: 0, conn: a, w: bufio.NewWriter(a), timeout: 0}
	if err := p.writeHello(3); err != nil {
		t.Fatal(err)
	}
	if err := p.writeEOS(); err != nil {
		t.Fatal(err)
	}
}

// Property: any batch of tuples survives the wire encoding.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(keys []uint16, vals []int32) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		in := make([]tuple.Tuple, n)
		for i := 0; i < n; i++ {
			in[i] = tuple.Tuple{Key: tuple.Key(keys[i]), Val: int64(vals[i])}
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if writeRawFrame(w, in) != nil || w.Flush() != nil {
			return false
		}
		fr, err := readFrame(bufio.NewReader(&buf), nil)
		if err != nil || len(fr.raw) != n {
			return false
		}
		for i := range in {
			if fr.raw[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
