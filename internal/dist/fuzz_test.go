package dist

import (
	"bufio"
	"bytes"
	"testing"

	"parallelagg/internal/tuple"
)

// FuzzDecodeFrame throws arbitrary bytes at the wire decoder. The
// invariants: readFrame never panics; a decoded frame is well-formed
// (one of the ten kinds, record counts within the protocol bound, control
// frames empty, data frames without aux); and a successful decode
// re-encodes to bytes that decode to the same frame, stream tag and aux
// included (round-trip stability). Truncated or oversized length prefixes
// must surface as errors, not panics or giant allocations — the
// chunked-allocation guard in readFrame exists for exactly the inputs
// this fuzzer generates.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(header(frameEOS, 1, 0, 0, 0))
	f.Add(header(frameEOP, 0, 0, 0, 0))
	f.Add(header(frameRaw, 0, 0, 0, 0xffffffff))          // absurd count, no data
	f.Add(header(framePartial, 0, 0, 0, maxFrameRecords)) // 1M partials claimed, none sent
	f.Add(append(header(frameRaw, 0, 0, 0, 2), 1, 2, 3))  // truncated records
	f.Add(header(99, 1, 0, 0, 0))                         // unknown kind
	f.Add(must(rawFrameInto(nil, 1, 0, []tuple.Tuple{{Key: 1, Val: -7}, {Key: 99, Val: 42}})))
	f.Add(must(partialFrameInto(nil, 3, 9, []tuple.Partial{{Key: 3, State: tuple.NewState(5)}})))
	f.Add(header(11, 0, 0, 0, maxFrameRecords)) // kinds 11 and 12 were the columnar frames: unknown now
	f.Add(header(12, 0, 0, 0, 2))
	// One record past a decode run (allocChunk bytes), whole and cut mid-run.
	f.Add(must(rawFrameInto(nil, 0, 0, make([]tuple.Tuple, allocChunk/tuple.RawSize+1))))
	f.Add(must(partialFrameInto(nil, 0, 0, make([]tuple.Partial, allocChunk/tuple.PartialSize+1)))[:headerSize+allocChunk/2])
	// The tolerant control kinds, every header field set.
	f.Add(header(frameHeartbeat, 4, 0, 750, 0))
	f.Add(header(frameSuspect, 2, 0, phaseCode(PhaseRead), 0))
	f.Add(header(frameAssign, 3, 7, 1|assignDeadFlag, 0))
	f.Add(header(frameEvict, 1, 2, 0, 0))
	f.Add(header(frameDone, 2, 0, 5, 0))
	f.Add(header(frameFinish, 0, 1<<16-1, 0, 0))
	f.Add(header(frameRaw, 0, 0, 1, 0)) // a data frame with aux

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			return
		}
		isData := fr.kind == frameRaw || fr.kind == framePartial
		switch fr.kind {
		case frameRaw, framePartial, frameEOS, frameEOP,
			frameHeartbeat, frameSuspect, frameAssign, frameEvict, frameDone, frameFinish:
		default:
			t.Fatalf("decoded frame has unknown kind %d", fr.kind)
		}
		if len(fr.raw) > maxFrameRecords || len(fr.partials) > maxFrameRecords {
			t.Fatalf("decoded frame exceeds maxFrameRecords: %d raw, %d partials", len(fr.raw), len(fr.partials))
		}
		if !isData && (len(fr.raw) != 0 || len(fr.partials) != 0) {
			t.Fatalf("control frame %d decoded with records", fr.kind)
		}
		if isData && fr.aux != 0 {
			t.Fatalf("data frame %d decoded with aux %#x", fr.kind, fr.aux)
		}
		if fr.kind == frameRaw && len(fr.partials) != 0 || fr.kind == framePartial && len(fr.raw) != 0 {
			t.Fatalf("frame kind %d decoded with records of the other kind", fr.kind)
		}

		// Round-trip: re-encode the decoded frame and decode it again.
		var out []byte
		switch fr.kind {
		case frameRaw:
			out, err = rawFrameInto(nil, fr.origin, fr.epoch, fr.raw)
		case framePartial:
			out, err = partialFrameInto(nil, fr.origin, fr.epoch, fr.partials)
		default:
			var buf bytes.Buffer
			err = writeControl(bufio.NewWriter(&buf), fr.kind, fr.origin, fr.epoch, fr.aux)
			out = buf.Bytes()
		}
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		fr2, err := readFrame(bufio.NewReader(bytes.NewReader(out)), nil)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if fr2.kind != fr.kind || fr2.stream() != fr.stream() || fr2.aux != fr.aux {
			t.Fatalf("round trip changed the header: kind %d→%d, stream %v→%v, aux %#x→%#x",
				fr.kind, fr2.kind, fr.stream(), fr2.stream(), fr.aux, fr2.aux)
		}
		if err := sameRecords(fr2.raw, fr.raw); err != nil {
			t.Fatalf("round trip changed the raw records: %v", err)
		}
		if err := sameRecords(fr2.partials, fr.partials); err != nil {
			t.Fatalf("round trip changed the partial records: %v", err)
		}
	})
}
