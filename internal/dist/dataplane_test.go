package dist

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/obs"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// Tests of the data plane the folds, the decoders and the self slot share:
// what crosses a socket and in what frame sizes, what the decoders do with
// short or forged bodies, and what one query allocates.

func testTuples(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Tuple{Key: tuple.Key(i*2654435761 + 1), Val: int64(i) - 7}
	}
	return ts
}

func testPartials(n int) []tuple.Partial {
	ps := make([]tuple.Partial, n)
	for i, t := range testTuples(n) {
		ps[i] = tuple.Partial{Key: t.Key, State: tuple.NewState(t.Val)}
		ps[i].State.Update(int64(i))
	}
	return ps
}

// frameCodec is one record kind behind a common shape so the decode
// tests run the same cases over both.
type frameCodec struct {
	name    string
	recSize int
	encode  func(n int) []byte
	// decode reads one frame and reports whether it carries stream (3, 9)
	// and the first n test records.
	decode func(r *bufio.Reader, n int) error
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func sameRecords[T comparable](got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func frameCodecs() []frameCodec {
	tag := streamID{origin: 3, epoch: 9}
	decode := func(r *bufio.Reader) (frame, error) {
		f, err := readFrame(r, nil)
		if err == nil && f.stream() != tag {
			err = fmt.Errorf("stream tag %v, want %v", f.stream(), tag)
		}
		return f, err
	}
	return []frameCodec{
		{"raw", tuple.RawSize,
			func(n int) []byte { return must(rawFrameInto(nil, tag.origin, tag.epoch, testTuples(n))) },
			func(r *bufio.Reader, n int) error {
				f, err := decode(r)
				if err != nil {
					return err
				}
				return sameRecords(f.raw, testTuples(n))
			}},
		{"partial", tuple.PartialSize,
			func(n int) []byte { return must(partialFrameInto(nil, tag.origin, tag.epoch, testPartials(n))) },
			func(r *bufio.Reader, n int) error {
				f, err := decode(r)
				if err != nil {
					return err
				}
				return sameRecords(f.partials, testPartials(n))
			}},
	}
}

// The decoders take record bodies out of the reader's buffer a run at a
// time. Counts on both sides of a run boundary, a frame many runs long,
// the smallest reader in use (4,096 bytes) and a source that delivers one
// byte per Read must all decode the same records and leave the stream at
// the next frame.
func TestBulkDecode(t *testing.T) {
	for _, c := range frameCodecs() {
		for _, n := range []int{1, 255, 256, 257, 5000} {
			stream := append(c.encode(n), c.encode(2)...)
			sources := map[string]io.Reader{
				"whole":    bytes.NewReader(stream),
				"one byte": iotest.OneByteReader(bytes.NewReader(stream)),
			}
			for how, src := range sources {
				r := bufio.NewReaderSize(src, 4096)
				if err := c.decode(r, n); err != nil {
					t.Errorf("%s, %d records, %s: %v", c.name, n, how, err)
					continue
				}
				if err := c.decode(r, 2); err != nil {
					t.Errorf("%s, frame after %d records, %s: %v", c.name, n, how, err)
				}
			}
		}
	}
}

// A body that stops early is io.ErrUnexpectedEOF wherever the cut falls:
// inside a record, between two records of a run, or between two runs.
func TestBulkDecodeTruncated(t *testing.T) {
	for _, c := range frameCodecs() {
		whole := c.encode(5000)
		run := allocChunk / c.recSize * c.recSize
		for _, cut := range []int{headerSize, headerSize + 7, headerSize + 3*c.recSize, headerSize + run, headerSize + 2*run + c.recSize + 1, len(whole) - 1} {
			err := c.decode(bufio.NewReaderSize(bytes.NewReader(whole[:cut]), 4096), 5000)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s cut at byte %d of %d: %v, want io.ErrUnexpectedEOF", c.name, cut, len(whole), err)
			}
		}
	}
}

// A forged length prefix must surface as a read error, never as a large
// allocation: the record slice grows only as record bytes arrive, so a
// header claiming maxFrameRecords records over a 10-byte body costs one
// run's worth of records.
func TestWireRejectsForgedCounts(t *testing.T) {
	for _, c := range frameCodecs() {
		forged := c.encode(1)[:headerSize+10]
		binary.LittleEndian.PutUint32(forged[headerSize-4:], maxFrameRecords) // the header ends in the count
		r := bufio.NewReaderSize(bytes.NewReader(forged), 4096)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(r, maxFrameRecords)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: forged count over a 10-byte body: %v, want io.ErrUnexpectedEOF", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: forged count allocated %d bytes before failing, want < 64 KiB", c.name, got)
		}
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(header(framePartial, 0, 0, 0, maxFrameRecords+1))), nil); err == nil {
		t.Error("count over the limit accepted")
	}
}

// Kinds 11 and 12 were the columnar data frames. They are gone, so a
// peer still sending them is a protocol error.
func TestRetiredColumnarKindsRejected(t *testing.T) {
	for _, kind := range []frameKind{11, 12} {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(header(kind, 0, 0, 0, 0))), nil); err == nil {
			t.Errorf("kind %d accepted", kind)
		}
	}
}

// The pool hands a folded slice to the next decode and never blocks.
func TestRawPoolRecycles(t *testing.T) {
	pool := make(rawPool, 1)
	done := make(chan struct{})
	if pool.get() != nil {
		t.Fatal("empty pool returned a slice")
	}
	r := bufio.NewReader(bytes.NewReader(append(must(rawFrameInto(nil, 0, 0, testTuples(300))), must(rawFrameInto(nil, 0, 0, testTuples(200)))...)))
	f, err := readFrame(r, pool)
	if err != nil {
		t.Fatal(err)
	}
	first := &f.raw[0]
	pool.put(f.raw, done)
	pool.put(make([]tuple.Tuple, 5), done) // full: dropped, not blocked on
	f, err = readFrame(r, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRecords(f.raw, testTuples(200)); err != nil {
		t.Fatal(err)
	}
	if &f.raw[0] != first {
		t.Error("second raw frame did not decode into the recycled slice")
	}
}

// runNodes is RunConfigured keeping the per-node results.
func runNodes(t *testing.T, parts [][]tuple.Tuple, template Config) []*NodeResult {
	t.Helper()
	n := len(parts)
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	results := make([]*NodeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := template
			cfg.ID, cfg.Addrs = i, addrs
			results[i], errs[i] = RunNode(listeners[i], cfg, parts[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results
}

// series reads one exact series of a Prometheus text snapshot; a series
// that was never touched does not exist.
func series(snap, name string) (float64, bool) {
	for _, line := range bytes.Split([]byte(snap), []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(name+" ")); ok {
			var v float64
			if _, err := fmt.Sscan(string(rest), &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// A node's own slice of the repartitioned stream is merged in memory, in
// either mode. The node-level counters still count it (RawSent is the
// whole partition under Rep, as it was when the slice looped through a
// socket); the wire metrics count exactly what went to other nodes: one
// hello, the raw frames, one EOS and, in tolerant mode, the control frames
// of the liveness protocol (heartbeats, done, finish, and a complaint
// when a peer's teardown races its finish). A fail-fast node has recovery
// off: it sends none of those, and every dist_recover_* series stays 0.
// Either mode's node ends up owning its own range only, with no peer dead.
func TestSelfSlotAccounting(t *testing.T) {
	const nodes, batch = 3, 128
	rel := workload.Uniform(nodes, 9_000, 600, 21)
	for _, tolerate := range []bool{false, true} {
		template := Config{Algorithm: Repartitioning}
		if tolerate {
			template = tolerantTemplate(Repartitioning)
			template.PartitionSource = func(node int) []tuple.Tuple { return rel.PerNode[node] }
		}
		template.Batch, template.Obs = batch, obs.New()
		results := runNodes(t, rel.PerNode, template)
		snap := string(template.Obs.Snapshot())

		got := make(map[tuple.Key]tuple.AggState)
		var wantBytes, gotBytes float64
		for i, r := range results {
			if r.RawSent != int64(len(rel.PerNode[i])) || r.PartialsSent != 0 {
				t.Errorf("tolerate=%v node %d: RawSent %d PartialsSent %d, want %d and 0", tolerate, i, r.RawSent, r.PartialsSent, len(rel.PerNode[i]))
			}
			if !slices.Equal(r.Ranges, []int{i}) || len(r.DeadPeers) != 0 {
				t.Errorf("tolerate=%v node %d: Ranges %v DeadPeers %v, want [%d] and none", tolerate, i, r.Ranges, r.DeadPeers, i)
			}
			for k, s := range r.Groups {
				got[k] = s
			}
			to := make([]int, nodes)
			for _, tp := range rel.PerNode[i] {
				to[tp.Key.Dest(nodes)]++
			}
			for d := 0; d < nodes; d++ {
				labels := fmt.Sprintf(`{node="%d",peer="%d"`, i, d)
				frames := func(kind string) int {
					f, _ := series(snap, "dist_frames_sent_total"+labels+`,kind="`+kind+`"}`)
					return int(f)
				}
				if d == i {
					for _, family := range []string{"dist_bytes_sent_total", "dist_bytes_recv_total"} {
						if _, ok := series(snap, family+labels+"}"); ok {
							t.Errorf("tolerate=%v: %s%s} exists: the self slot reached the wire metrics", tolerate, family, labels)
						}
					}
					for _, kind := range []string{"hello", "raw", "eos", "heartbeat", "done"} {
						if n := frames(kind); n != 0 {
							t.Errorf("tolerate=%v: node %d counted %d %s frames sent to itself", tolerate, i, n, kind)
						}
					}
					continue
				}
				sent, ok := series(snap, "dist_bytes_sent_total"+labels+"}")
				if !ok {
					t.Fatalf("tolerate=%v: no dist_bytes_sent_total%s} series", tolerate, labels)
				}
				if f := frames("raw"); f != ceilDiv(to[d], batch) {
					t.Errorf("tolerate=%v: node %d -> %d: %v raw frames for %d records, want %d", tolerate, i, d, f, to[d], ceilDiv(to[d], batch))
				}
				if frames("hello") != 1 || frames("eos") != 1 {
					t.Errorf("tolerate=%v: node %d -> %d: %d hellos and %d EOS, want one each", tolerate, i, d, frames("hello"), frames("eos"))
				}
				headers := 0
				for _, kind := range []string{"raw", "eos", "eop", "heartbeat", "suspect", "assign", "evict", "done", "finish"} {
					headers += frames(kind)
				}
				if !tolerate {
					for _, kind := range []string{"heartbeat", "suspect", "assign", "evict", "done", "finish"} {
						if f := frames(kind); f != 0 {
							t.Errorf("fail-fast node %d -> %d: %d %s frames with recovery off", i, d, f, kind)
						}
					}
				}
				wantBytes += float64(4 + headerSize*headers + to[d]*tuple.RawSize)
				gotBytes += sent
			}
		}
		if gotBytes != wantBytes {
			t.Errorf("tolerate=%v: wire bytes %v, want %v (records to other nodes x RawSize + headers)", tolerate, gotBytes, wantBytes)
		}
		for _, line := range strings.Split(snap, "\n") {
			if fields := strings.Fields(line); !tolerate && strings.HasPrefix(line, "dist_recover_") && fields[len(fields)-1] != "0" {
				t.Errorf("fail-fast series %s is not 0 with recovery off", line)
			}
		}
		verify(t, rel, got)
	}
}

// countingListener counts the connections a node accepted.
type countingListener struct {
	net.Listener
	accepted *atomic.Int32
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// A one-node cluster is all self slot, in either mode: nothing is dialed,
// nothing is accepted, and every algorithm still answers.
func TestSingleNodeOpensNoConnection(t *testing.T) {
	rel := workload.Uniform(1, 5_000, 300, 22)
	for _, tolerate := range []bool{false, true} {
		for _, alg := range algorithms() {
			var accepted atomic.Int32
			template := Config{Algorithm: alg}
			if tolerate {
				template = tolerantTemplate(alg)
			}
			template.TableEntries = 100
			template.Dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
				t.Errorf("tolerate=%v %v: dialed %s", tolerate, alg, addr)
				return net.DialTimeout(network, addr, timeout)
			}
			template.WrapListener = func(ln net.Listener) net.Listener { return countingListener{ln, &accepted} }
			res, err := RunConfigured(rel.PerNode, template)
			if err != nil {
				t.Fatalf("tolerate=%v %v: %v", tolerate, alg, err)
			}
			if n := accepted.Load(); n != 0 {
				t.Errorf("tolerate=%v %v: accepted %d connections", tolerate, alg, n)
			}
			verify(t, rel, res.Groups)
		}
	}
}

// A tolerant node connects to its n−1 peers only: in a 4-node cluster
// every node dials three addresses, none of them its own, and accepts
// three connections.
func TestTolerantMeshHasNoSelfConnection(t *testing.T) {
	const nodes = 4
	rel := workload.Uniform(nodes, 8_000, 500, 24)
	ln := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range ln {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln[i], addrs[i] = l, l.Addr().String()
	}
	var mu sync.Mutex
	dialed := make([]map[string]bool, nodes)
	accepted := make([]atomic.Int32, nodes)
	var wg sync.WaitGroup
	for i := range ln {
		dialed[i] = make(map[string]bool)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := tolerantTemplate(TwoPhase)
			cfg.ID, cfg.Addrs = i, addrs
			cfg.PartitionSource = func(node int) []tuple.Tuple { return rel.PerNode[node] }
			cfg.Dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
				mu.Lock()
				dialed[i][addr] = true
				mu.Unlock()
				return net.DialTimeout(network, addr, timeout)
			}
			cfg.WrapListener = func(ln net.Listener) net.Listener { return countingListener{ln, &accepted[i]} }
			if _, err := RunNode(ln[i], cfg, rel.PerNode[i]); err != nil {
				t.Errorf("node %d: %v", i, err)
			}
		}()
	}
	watched(t, "4-node tolerant mesh", wg.Wait)
	for i := range ln {
		if len(dialed[i]) != nodes-1 || dialed[i][addrs[i]] {
			t.Errorf("node %d dialed %v, want the %d other nodes", i, dialed[i], nodes-1)
		}
		if n := accepted[i].Load(); n != nodes-1 {
			t.Errorf("node %d accepted %d connections, want %d", i, n, nodes-1)
		}
	}
}

// A scan's flush through a fail-fast node's exchange must deliver every group
// exactly once to its destination, in frames of 1..batch records; two runs
// over the same partition must write identical bytes (the slot order is a
// function of the fill, so a same-seed run ships byte-identical frames);
// and the first failed write ends the scan with the peer's *NodeError.
func TestFlushPartialsFrames(t *testing.T) {
	const n, batch, groups = 3, 64, 1000
	part := make([]tuple.Tuple, 3*groups)
	want := aggtable.New(0)
	for i := range part {
		part[i] = tuple.Tuple{Key: tuple.Key(i % groups * 31), Val: int64(i)}
		want.UpdateRaw(part[i])
	}
	// Node n of n+1 scans into n destinations: every one is a peer, none
	// the node's own share.
	run := func(w func(d int) io.Writer) ([][]byte, error) {
		nd := newTnode(nil, Config{ID: n, Addrs: make([]string, n+1), Batch: batch}, nil)
		bufs := make([]*bytes.Buffer, n)
		for d, p := range nd.peers[:n] {
			bufs[d] = new(bytes.Buffer)
			p.mu.Lock()
			p.w = bufio.NewWriterSize(io.MultiWriter(bufs[d], w(d)), 16)
			p.mu.Unlock()
			p.state.Store(peerUp)
		}
		sc := newScan(nd.cfg, TwoPhase, n, len(part), nil, &exchange{nd: nd, s: streamID{origin: n}})
		err := sc.Run(part)
		out := make([][]byte, n)
		for d, p := range nd.peers[:n] {
			p.mu.Lock()
			p.w.Flush()
			p.mu.Unlock()
			out[d] = bufs[d].Bytes()
		}
		return out, err
	}
	ok := func(int) io.Writer { return io.Discard }
	wire, err := run(ok)
	if err != nil {
		t.Fatal(err)
	}
	var all []tuple.Partial
	for d, b := range wire {
		r := bufio.NewReader(bytes.NewReader(b))
		for {
			f, err := readFrame(r, nil)
			if err == io.EOF {
				break
			}
			if err != nil || f.kind != framePartial {
				t.Fatalf("destination %d: frame kind %d, %v", d, f.kind, err)
			}
			if len(f.partials) == 0 || len(f.partials) > batch {
				t.Errorf("frame of %d partials to %d, want 1..%d", len(f.partials), d, batch)
			}
			for _, pt := range f.partials {
				if pt.Key.Dest(n) != d {
					t.Fatalf("key %d shipped to %d, owned by %d", pt.Key, d, pt.Key.Dest(n))
				}
			}
			all = append(all, f.partials...)
		}
	}
	slices.SortFunc(all, func(a, b tuple.Partial) int { return cmp.Compare(a.Key, b.Key) })
	if !slices.Equal(all, want.Partials()) {
		t.Fatalf("flushed %d partials, not the table's %d groups", len(all), want.Len())
	}
	if again, _ := run(ok); !reflect.DeepEqual(again, wire) {
		t.Error("two runs over one partition wrote different bytes")
	}

	boom := errors.New("boom")
	_, err = run(func(d int) io.Writer {
		if d == 1 {
			return errWriter{boom}
		}
		return io.Discard
	})
	var ne *NodeError
	if !errors.As(err, &ne) || ne.Peer != 1 || !errors.Is(err, boom) {
		t.Errorf("write error to peer 1 ended the scan with %v", err)
	}
}

type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

// With Batch 64 no partial frame may carry more than 64 records, in
// either mode: the frame count per (node, peer) is exactly what splitting
// that pair's partials into 64s gives. A node's own share goes through its
// self slot in both modes, so the pair (i, i) has no series.
func TestPartialFramesBoundedByBatch(t *testing.T) {
	const nodes, batch = 2, 64
	rel := workload.Uniform(nodes, 6_000, 1_000, 23)
	for _, tolerate := range []bool{false, true} {
		template := Config{Algorithm: TwoPhase, Batch: batch}
		if tolerate {
			template = tolerantTemplate(TwoPhase)
			template.Batch = batch
		}
		template.Obs = obs.New()
		res, err := RunConfigured(rel.PerNode, template)
		if err != nil {
			t.Fatalf("tolerate=%v: %v", tolerate, err)
		}
		verify(t, rel, res.Groups)
		snap := string(template.Obs.Snapshot())
		for i, part := range rel.PerNode {
			to := make([]map[tuple.Key]bool, nodes)
			for _, tp := range part {
				d := tp.Key.Dest(nodes)
				if to[d] == nil {
					to[d] = make(map[tuple.Key]bool)
				}
				to[d][tp.Key] = true
			}
			for d := range to {
				name := fmt.Sprintf(`dist_frames_sent_total{node="%d",peer="%d",kind="partial"}`, i, d)
				if d == i {
					if _, ok := series(snap, name); ok {
						t.Errorf("tolerate=%v: %s exists: the self slot reached the wire metrics", tolerate, name)
					}
					continue
				}
				if got, _ := series(snap, name); int(got) != ceilDiv(len(to[d]), batch) {
					t.Errorf("tolerate=%v: %s = %v for %d partials, want %d", tolerate, name, got, len(to[d]), ceilDiv(len(to[d]), batch))
				}
			}
		}
	}
}

// An unbounded table can hold more groups for one destination than a
// frame may carry (maxFrameRecords). The flush used to write them as one
// frame and fail the query on the write-side limit.
func TestFlushLargerThanWireLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("folds 2^20 groups")
	}
	part := make([]tuple.Tuple, maxFrameRecords+5)
	for i := range part {
		part[i] = tuple.Tuple{Key: tuple.Key(i), Val: int64(i % 1000)}
	}
	rel := &workload.Relation{PerNode: [][]tuple.Tuple{part}}
	got, _, err := Run(rel.PerNode, TwoPhase, 0)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, rel, got)
}

// runWatchdog bounds one in-process cluster run in the tests that use
// watched; a healthy one takes milliseconds, even under -race.
const runWatchdog = 60 * time.Second

// watched runs run under a watchdog. A run that has not returned within
// runWatchdog fails the test at once, naming the case (ctx) and dumping
// every goroutine's stack, instead of hanging until go test's package
// timeout, which names neither.
func watched(t *testing.T, ctx string, run func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		run()
	}()
	select {
	case <-done:
	case <-time.After(runWatchdog):
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		t.Fatalf("%s: no result after %v; goroutines:\n%s", ctx, runWatchdog, buf)
	}
}

// runWatched is RunConfigured under watched.
func runWatched(t *testing.T, ctx string, parts [][]tuple.Tuple, cfg Config) (res *ClusterResult, err error) {
	t.Helper()
	watched(t, ctx, func() { res, err = RunConfigured(parts, cfg) })
	return res, err
}

// dist_loop's shape at a quarter scale against the sequential fold, in
// both modes. A-2P's switch reserves each range past the merge side's cache
// budget, so the merge table stages raw tuples and folds them region by
// region (DESIGN.md §14), as its span note shows. The seeded matrix of
// workloads, algorithms and bounds is the oracle's (internal/oracle).
func TestDifferentialAllModes(t *testing.T) {
	rel := workload.Uniform(2, 1<<18, 1<<17, 99)
	for _, tolerate := range []bool{false, true} {
		cfg := Config{Algorithm: AdaptiveTwoPhase}
		if tolerate {
			cfg = tolerantTemplate(AdaptiveTwoPhase)
		}
		cfg.TableEntries = 4096
		ctx := fmt.Sprintf("staged: tolerate=%v", tolerate)
		_, merges := tracedCluster(t, ctx, rel, cfg)
		for i, m := range merges {
			if m.staged == 0 || m.folds == 0 {
				t.Errorf("%s: merge %d reserved %d (%d slots) and staged %d tuples in %d folds",
					ctx, i, m.reserved, m.slots, m.staged, m.folds)
			}
		}
	}
}

// One A-2P query over 4,096 groups with a 1,024-entry bound switches to
// raw shipping almost at once, so nearly every input row crosses the
// exchange as a raw record. What it allocates must not grow with the
// input: the tables and the result map depend on the groups, and the
// frames decode into pooled slices. Four times the rows used to cost
// 565–571 more allocations (a header and a record slice per raw frame,
// map growth per node); now the two sizes differ by -10 to +1, which is
// how many pooled slices happened to be in flight at once.
func TestDistAllocationCeiling(t *testing.T) {
	const groups, ceiling = 4096, 20
	run := func(rows int64) int64 {
		rel := workload.Uniform(2, rows, groups, 24)
		cfg := Config{Algorithm: AdaptiveTwoPhase, TableEntries: 1024}
		measure := func() int64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := RunConfigured(rel.PerNode, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Switched != 2 || len(res.Groups) != groups {
				t.Fatalf("switched=%d groups=%d, want 2 and %d: not the regime this test pins", res.Switched, len(res.Groups), groups)
			}
			return int64(after.Mallocs - before.Mallocs)
		}
		measure() // warm-up: goroutine stacks, runtime pools
		return min(measure(), measure(), measure())
	}
	small, large := run(1<<16), run(1<<18)
	t.Logf("allocations: %d at 2^16 rows, %d at 2^18 rows", small, large)
	if large-small > ceiling {
		t.Errorf("4x the rows cost %d more allocations (%d -> %d), ceiling %d", large-small, small, large, ceiling)
	}
}

// A fault-free tolerant run commits every stream it stages, and each
// stage's table goes back to aggtable's pool once poured, as fail-fast's
// merge tables do once assembled: so rerun, the two modes allocate about
// the same bytes (tolerant reads 0.5–0.95× fail-fast here). Stages left to
// the garbage collector cost a fresh table and its growth per stream and
// run: 1.8–2.1×. A pool is emptied by two garbage collections in a row,
// and a full-suite run beside this one read 1.34× once when they fell
// between runs, so the collector is off while both modes are measured,
// and the least of three runs is taken.
func TestTolerantAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what it is given")
	}
	const groups, ceiling = 25_000, 1.3
	rel := workload.Uniform(2, 1<<17, groups, 7)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(cfg Config) uint64 {
		run := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := RunConfigured(rel.PerNode, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Switched != 2 || len(res.Groups) != groups {
				t.Fatalf("switched=%d groups=%d, want 2 and %d: not the regime this test pins", res.Switched, len(res.Groups), groups)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		run() // warm-up: goroutine stacks, the slab pool
		return min(run(), run(), run())
	}
	failFast := measure(Config{Algorithm: AdaptiveTwoPhase, TableEntries: 2048})
	tolerant := tolerantTemplate(AdaptiveTwoPhase)
	tolerant.TableEntries = 2048
	tol := measure(tolerant)
	t.Logf("bytes per run: fail-fast %d, tolerant %d (%.2fx)", failFast, tol, float64(tol)/float64(failFast))
	if float64(tol) > ceiling*float64(failFast) {
		t.Errorf("tolerant run allocated %d B, %.2fx fail-fast's %d; ceiling %.1fx", tol, float64(tol)/float64(failFast), failFast, ceiling)
	}
}

// BenchmarkClusterA2P is dist_loop's query shape at a quarter of the rows:
// a two-node loopback cluster, cluster formation included, every node
// switching once its 16,384-entry table fills, and the same query with no
// bound, so no switch. rows/s and B/row are the numbers to read (B/op and
// allocs/op repeat exactly, ns/op swings); compare two commits by
// alternating their test binaries.
func BenchmarkClusterA2P(b *testing.B) {
	rel := workload.Uniform(2, 1<<18, 50_000, 25)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"failfast", Config{Algorithm: AdaptiveTwoPhase, TableEntries: 16384}},
		{"tolerate", Config{Algorithm: AdaptiveTwoPhase, TableEntries: 16384, Tolerate: true}},
		// Unbounded: one end-of-scan flush of every group a node saw, poured
		// in slot order into merge tables nothing reserved.
		{"failfast_unbounded", Config{Algorithm: AdaptiveTwoPhase}},
		{"tolerate_unbounded", Config{Algorithm: AdaptiveTwoPhase, Tolerate: true}},
	} {
		cfg := c.cfg
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(rel.Tuples()) * tuple.RawSize)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunConfigured(rel.PerNode, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Groups) != 50_000 {
					b.Fatalf("%d groups", len(res.Groups))
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(b.N) * float64(rel.Tuples())
			b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
		})
	}
}

func benchReadFrame(b *testing.B, encoded []byte, records int) {
	src := bytes.NewReader(encoded)
	r := bufio.NewReaderSize(src, 1<<16)
	b.ReportAllocs()
	b.SetBytes(int64(len(encoded)))
	for i := 0; i < b.N; i++ {
		src.Reset(encoded)
		r.Reset(src)
		f, err := readFrame(r, nil)
		if err != nil || len(f.raw)+len(f.partials) != records {
			b.Fatalf("%d records, %v", len(f.raw)+len(f.partials), err)
		}
	}
}

// The two record decoders on a default-batch frame, through the reader
// size the nodes use and with no pool (every frame allocates its slice).
func BenchmarkReadFrameRaw(b *testing.B) {
	benchReadFrame(b, must(rawFrameInto(nil, 0, 0, testTuples(1024))), 1024)
}

func BenchmarkReadFramePartial(b *testing.B) {
	benchReadFrame(b, must(partialFrameInto(nil, 0, 0, testPartials(1024))), 1024)
}
