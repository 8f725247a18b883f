package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"parallelagg/internal/tuple"
)

func readBack(t *testing.T, buf []byte) (tframe, error) {
	t.Helper()
	return readTFrame(bufio.NewReader(bytes.NewReader(buf)), nil)
}

func TestTolerantRawFrameRoundTrip(t *testing.T) {
	ts := []tuple.Tuple{{Key: 1, Val: 10}, {Key: 77, Val: -3}, {Key: 1 << 20, Val: 0}}
	buf, err := tRawFrameInto(nil, 3, 2, ts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := readBack(t, buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameRaw || f.origin != 3 || f.epoch != 2 {
		t.Fatalf("header = kind %d origin %d epoch %d", f.kind, f.origin, f.epoch)
	}
	if f.stream() != (streamID{origin: 3, epoch: 2}) {
		t.Fatalf("stream = %v", f.stream())
	}
	if len(f.raw) != len(ts) {
		t.Fatalf("got %d records, want %d", len(f.raw), len(ts))
	}
	for i := range ts {
		if f.raw[i] != ts[i] {
			t.Fatalf("record %d = %+v, want %+v", i, f.raw[i], ts[i])
		}
	}
}

func TestTolerantPartialFrameRoundTrip(t *testing.T) {
	ps := []tuple.Partial{
		{Key: 5, State: tuple.NewState(42)},
		{Key: 9, State: tuple.NewState(-1)},
	}
	buf, err := tPartialFrameInto(nil, 1, 7, ps)
	if err != nil {
		t.Fatal(err)
	}
	f, err := readBack(t, buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != framePartial || f.origin != 1 || f.epoch != 7 {
		t.Fatalf("header = kind %d origin %d epoch %d", f.kind, f.origin, f.epoch)
	}
	for i := range ps {
		if f.partials[i] != ps[i] {
			t.Fatalf("record %d = %+v, want %+v", i, f.partials[i], ps[i])
		}
	}
}

func TestTolerantControlFrameRoundTrip(t *testing.T) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if err := writeTControl(w, frameAssign, 2, 3, uint32(1)|assignDeadFlag); err != nil {
		t.Fatal(err)
	}
	// writeTControl flushes; the frame must already be on the wire.
	if out.Len() != tHeaderSize {
		t.Fatalf("wrote %d bytes, want %d", out.Len(), tHeaderSize)
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

func TestTolerantFrameRejectsHostileInput(t *testing.T) {
	mk := func(kind frameKind, count uint32) []byte {
		b := make([]byte, tHeaderSize)
		b[0] = byte(kind)
		binary.LittleEndian.PutUint32(b[8:12], count)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"unknown kind", mk(99, 0), "unknown frame kind"},
		{"oversized count", mk(frameRaw, 1<<24), "out of range"},
		{"heartbeat with payload", mk(frameHeartbeat, 1), "control frame"},
		{"assign with payload", mk(frameAssign, 3), "control frame"},
		{"finish with payload", mk(frameFinish, 1), "control frame"},
		{"truncated raw", mk(frameRaw, 2), ""}, // body missing: io error
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
	// A frame bigger than the record bound must be refused at encode time
	// too, not just decode.
	big := make([]tuple.Tuple, maxFrameRecords+1)
	if _, err := tRawFrameInto(nil, 0, 0, big); err == nil {
		t.Error("oversized raw frame encoded")
	}
	bigP := make([]tuple.Partial, maxFrameRecords+1)
	if _, err := tPartialFrameInto(nil, 0, 0, bigP); err == nil {
		t.Error("oversized partial frame encoded")
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
