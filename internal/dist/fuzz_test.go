package dist

import (
	"bufio"
	"bytes"
	"testing"

	"parallelagg/internal/tuple"
)

// encodeRawFrame builds a valid raw frame for seeding the fuzzer.
// Writing to a bytes.Buffer cannot fail.
func encodeRawFrame(ts []tuple.Tuple) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeRawFrame(w, ts); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

func encodePartialFrame(ps []tuple.Partial) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writePartialFrame(w, ps); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

// FuzzDecodeFrame throws arbitrary bytes at the wire decoder. The
// invariants: readFrame never panics; a decoded frame is well-formed
// (known kind, record counts within the protocol bound, control frames
// empty); and a successful decode re-encodes to bytes that decode to
// the same frame (round-trip stability). Truncated or oversized length
// prefixes must surface as errors, not panics or giant allocations —
// the chunked-allocation guard in readFrame exists for exactly the
// inputs this fuzzer generates.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(frameEOS), 0, 0, 0, 0})
	f.Add([]byte{byte(frameEOP), 0, 0, 0, 0})
	f.Add([]byte{byte(frameRaw), 255, 255, 255, 255})  // absurd count, no data
	f.Add([]byte{byte(framePartial), 0, 0, 16, 0})     // 1M partials claimed, none sent
	f.Add([]byte{byte(frameRaw), 2, 0, 0, 0, 1, 2, 3}) // truncated records
	f.Add([]byte{9, 1, 0, 0, 0})                       // unknown kind
	f.Add(encodeRawFrame([]tuple.Tuple{{Key: 1, Val: -7}, {Key: 99, Val: 42}}))
	f.Add(encodePartialFrame([]tuple.Partial{{Key: 3, State: tuple.NewState(5)}}))
	f.Add([]byte{11, 0, 0, 16, 0}) // kinds 11 and 12 were the columnar frames: unknown now
	f.Add([]byte{12, 2, 0, 0, 0})
	// One record past a decode run (allocChunk bytes), whole and cut mid-run.
	f.Add(encodeRawFrame(make([]tuple.Tuple, allocChunk/tuple.RawSize+1)))
	f.Add(encodePartialFrame(make([]tuple.Partial, allocChunk/tuple.PartialSize+1))[:5+allocChunk/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			return
		}
		switch fr.kind {
		case frameRaw, framePartial, frameEOS, frameEOP:
		default:
			t.Fatalf("decoded frame has unknown kind %d", fr.kind)
		}
		if len(fr.raw) > maxFrameRecords || len(fr.partials) > maxFrameRecords {
			t.Fatalf("decoded frame exceeds maxFrameRecords: %d raw, %d partials", len(fr.raw), len(fr.partials))
		}
		if (fr.kind == frameEOS || fr.kind == frameEOP) && (len(fr.raw) != 0 || len(fr.partials) != 0) {
			t.Fatalf("control frame %d decoded with records", fr.kind)
		}
		if fr.kind == frameRaw && len(fr.partials) != 0 || fr.kind == framePartial && len(fr.raw) != 0 {
			t.Fatalf("frame kind %d decoded with records of the other kind", fr.kind)
		}

		// Round-trip: re-encode the decoded frame and decode it again.
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		var werr error
		switch fr.kind {
		case frameRaw:
			werr = writeRawFrame(w, fr.raw)
		case framePartial:
			werr = writePartialFrame(w, fr.partials)
		case frameEOS:
			werr = writeEOSFrame(w)
		case frameEOP:
			werr = writeEOPFrame(w)
		}
		if werr != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", werr)
		}
		w.Flush()
		fr2, err := readFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())), nil)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if fr2.kind != fr.kind || len(fr2.raw) != len(fr.raw) || len(fr2.partials) != len(fr.partials) {
			t.Fatalf("round trip changed the frame: kind %d→%d, %d→%d raw, %d→%d partials",
				fr.kind, fr2.kind, len(fr.raw), len(fr2.raw), len(fr.partials), len(fr2.partials))
		}
		for i := range fr.raw {
			if fr2.raw[i] != fr.raw[i] {
				t.Fatalf("round trip changed raw record %d: %v → %v", i, fr.raw[i], fr2.raw[i])
			}
		}
		for i := range fr.partials {
			if fr2.partials[i] != fr.partials[i] {
				t.Fatalf("round trip changed partial record %d: %v → %v", i, fr.partials[i], fr2.partials[i])
			}
		}
	})
}
