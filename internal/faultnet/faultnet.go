// Package faultnet wraps net.Conn and net.Listener with deterministic,
// seeded fault injection: latency, bandwidth throttling, partial writes,
// connection resets, silent hangs, and accept failures. It exists so the
// distributed exchange in internal/dist can be tested against the failure
// modes the paper's PVM cluster simply hung on — a slow peer, a dead peer,
// an asymmetric link — without real machines or real packet loss.
//
// All randomness comes from one seeded *rand.Rand guarded by a mutex, so a
// chaos scenario replays identically for a given Config.Seed. Injected
// waits (latency, throttle, hang) respect the connection's read/write
// deadlines and its Close, so a victim that sets deadlines — as the
// hardened dist layer does — always gets control back.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjectedReset is the error returned by an operation on which the
// injector fired a connection reset. The underlying connection is closed
// (with SO_LINGER 0 when it is a TCPConn, so the peer sees a real RST).
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// ErrInjectedCrash is returned by every operation on an injector whose
// kill trigger (KillWrites/KillReads) has fired: the process it simulates
// is gone, so reads, writes, accepts, and dials all fail hard. Unlike
// ErrInjectedAcceptFailure it is NOT temporary.
var ErrInjectedCrash = errors.New("faultnet: injected crash")

// ErrInjectedAcceptFailure is returned by Accept when the injector fires
// an accept fault. It is temporary: accept loops that retry transient
// errors (as internal/dist does) recover from it.
var ErrInjectedAcceptFailure = &acceptError{}

type acceptError struct{}

func (*acceptError) Error() string   { return "faultnet: injected accept failure" }
func (*acceptError) Temporary() bool { return true }
func (*acceptError) Timeout() bool   { return false }

// Config selects which faults the injector fires and how often. All
// probabilities are per-operation (per Read, per Write, per Accept) in
// [0,1]; zero disables that fault. The zero Config injects nothing.
type Config struct {
	// Seed seeds the injector's RNG. Same seed, same fault sequence.
	Seed int64

	// Latency is added to every Read and Write, plus a uniform extra in
	// [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration

	// Bandwidth throttles payload in bytes per second (0 = unlimited), one
	// operation at a time: each Write first sleeps len(p)/Bandwidth, and
	// each Read sleeps n/Bandwidth after it returns n bytes. No budget
	// is shared across connections or across operations that overlap, so n
	// busy connections move about n times Bandwidth. One injector-wide
	// clock is ROADMAP item 5(c).
	Bandwidth int

	// PartialWrite is the probability that a Write delivers only a random
	// prefix of its payload and then resets the connection — a frame
	// truncated on the wire, the way a peer crash mid-send looks.
	PartialWrite float64

	// Reset is the probability that an operation closes the connection
	// (RST when possible) and returns ErrInjectedReset.
	Reset float64

	// Hang is the probability that an operation blocks silently — no
	// data, no error — until the connection is closed or its deadline
	// expires. This is the straggler/dead-peer case deadlines exist for.
	Hang float64

	// AcceptFail is the probability that an Accept returns a temporary
	// ErrInjectedAcceptFailure instead of a connection.
	AcceptFail float64

	// OneWayTx and OneWayRx model an asymmetric (one-way) partition,
	// decided once per connection at wrap time. A tx-blackholed
	// connection's writes succeed silently without delivering a byte —
	// the victim believes it is talking while nobody hears it. An
	// rx-blackholed connection's reads block until deadline or close —
	// the victim hears nobody while its own frames still get out.
	OneWayTx float64
	OneWayRx float64

	// KillWrites / KillReads simulate a process crash at a point in the
	// protocol: after N writes (resp. reads) counted across every
	// connection of this injector, all wrapped connections are closed and
	// every subsequent read, write, accept, and dial fails with the
	// permanent ErrInjectedCrash. Small counts die during dial/hello,
	// medium counts mid-scan, large read counts mid-merge. 0 disables.
	KillWrites int
	KillReads  int

	// HangWrites / HangReads are the same trigger but the process goes
	// silent instead of dying: once fired, every operation blocks until
	// its deadline expires or the connection is closed. 0 disables.
	HangWrites int
	HangReads  int
}

// ParseSpec builds a Config from a compact comma-separated spec suitable
// for command-line flags, e.g.
//
//	"latency=2ms,jitter=1ms,bw=1048576,partial=0.01,reset=0.005,hang=0.002,acceptfail=0.1,seed=42"
//
// Unknown keys are errors; an empty spec is the zero Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("faultnet: bad spec entry %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "latency":
			c.Latency, err = time.ParseDuration(v)
		case "jitter":
			c.Jitter, err = time.ParseDuration(v)
		case "bw":
			c.Bandwidth, err = strconv.Atoi(v)
		case "partial":
			c.PartialWrite, err = strconv.ParseFloat(v, 64)
		case "reset":
			c.Reset, err = strconv.ParseFloat(v, 64)
		case "hang":
			c.Hang, err = strconv.ParseFloat(v, 64)
		case "acceptfail":
			c.AcceptFail, err = strconv.ParseFloat(v, 64)
		case "onewaytx":
			c.OneWayTx, err = strconv.ParseFloat(v, 64)
		case "onewayrx":
			c.OneWayRx, err = strconv.ParseFloat(v, 64)
		case "killwrites":
			c.KillWrites, err = strconv.Atoi(v)
		case "killreads":
			c.KillReads, err = strconv.Atoi(v)
		case "hangwrites":
			c.HangWrites, err = strconv.Atoi(v)
		case "hangreads":
			c.HangReads, err = strconv.Atoi(v)
		case "seed":
			c.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return c, fmt.Errorf("faultnet: unknown spec key %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("faultnet: spec %q: %w", kv, err)
		}
	}
	if err := c.validate(); err != nil {
		return c, err
	}
	return c, nil
}

// validate rejects configs no schedule can honour: probabilities
// outside [0,1], negative durations, negative bandwidth.
func (c Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"partial", c.PartialWrite},
		{"reset", c.Reset},
		{"hang", c.Hang},
		{"acceptfail", c.AcceptFail},
		{"onewaytx", c.OneWayTx},
		{"onewayrx", c.OneWayRx},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultnet: %s=%v is not a probability in [0,1]", p.name, p.v)
		}
	}
	if c.Latency < 0 {
		return fmt.Errorf("faultnet: negative latency %v", c.Latency)
	}
	if c.Jitter < 0 {
		return fmt.Errorf("faultnet: negative jitter %v", c.Jitter)
	}
	if c.Bandwidth < 0 {
		return fmt.Errorf("faultnet: negative bandwidth %d", c.Bandwidth)
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"killwrites", c.KillWrites},
		{"killreads", c.KillReads},
		{"hangwrites", c.HangWrites},
		{"hangreads", c.HangReads},
	} {
		if p.v < 0 {
			return fmt.Errorf("faultnet: negative %s count %d", p.name, p.v)
		}
	}
	return nil
}

// Injector owns the fault schedule. One injector can wrap many
// connections and listeners; they share its RNG, bandwidth budget, and
// crash/hang triggers (one injector simulates one process's network).
type Injector struct {
	cfg Config

	mu sync.Mutex
	//aggvet:guard mu
	rng *rand.Rand
	//aggvet:guard mu
	reads int
	//aggvet:guard mu
	writes int
	//aggvet:guard mu
	killed bool
	//aggvet:guard mu
	hung bool
	//aggvet:guard mu
	conns []net.Conn // every wrapped conn, closed en masse on kill
}

// New builds an injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// opTick counts one read or write against the kill/hang triggers and
// reports the injector's resulting state for this operation. Crossing a
// kill threshold closes every wrapped connection — the whole simulated
// process dies at once, not just the connection that happened to do the
// fatal operation.
func (in *Injector) opTick(write bool) (killed, hung bool) {
	var toClose []net.Conn
	in.mu.Lock()
	if write {
		in.writes++
	} else {
		in.reads++
	}
	if !in.killed {
		if (in.cfg.KillWrites > 0 && in.writes > in.cfg.KillWrites) ||
			(in.cfg.KillReads > 0 && in.reads > in.cfg.KillReads) {
			in.killed = true
			toClose = in.conns
			in.conns = nil
		}
	}
	if !in.hung {
		if (in.cfg.HangWrites > 0 && in.writes > in.cfg.HangWrites) ||
			(in.cfg.HangReads > 0 && in.reads > in.cfg.HangReads) {
			in.hung = true
		}
	}
	killed, hung = in.killed, in.hung
	in.mu.Unlock()
	for _, c := range toClose {
		c.Close()
	}
	return killed, hung
}

// dead reports whether the kill trigger has fired.
func (in *Injector) dead() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.killed
}

// track registers a wrapped conn for mass closure on kill; if the
// injector is already dead the conn is closed immediately.
func (in *Injector) track(c net.Conn) {
	in.mu.Lock()
	if in.killed {
		in.mu.Unlock()
		c.Close()
		return
	}
	in.conns = append(in.conns, c)
	in.mu.Unlock()
}

// roll returns true with probability p, from the shared seeded RNG.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < p
}

// jittered returns Latency plus a uniform sample of [0, Jitter).
func (in *Injector) jittered() time.Duration {
	d := in.cfg.Latency
	if in.cfg.Jitter > 0 {
		in.mu.Lock()
		d += time.Duration(in.rng.Int63n(int64(in.cfg.Jitter)))
		in.mu.Unlock()
	}
	return d
}

// cut returns a random prefix length in [0, n) for a partial write.
func (in *Injector) cut(n int) int {
	if n <= 1 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// Conn wraps c with this injector's faults. The one-way partition, being
// a property of a link rather than an operation, is decided here, once
// per connection.
func (in *Injector) Conn(c net.Conn) net.Conn {
	fc := &conn{
		Conn:        c,
		in:          in,
		closed:      make(chan struct{}),
		txBlackhole: in.roll(in.cfg.OneWayTx),
		rxBlackhole: in.roll(in.cfg.OneWayRx),
	}
	in.track(fc)
	return fc
}

// Listener wraps l so Accept can fail transiently and every accepted
// connection carries this injector's faults.
func (in *Injector) Listener(l net.Listener) net.Listener {
	return &listener{Listener: l, in: in}
}

// Dialer wraps a DialTimeout-shaped function so dialed connections carry
// this injector's faults. Pass nil to wrap net.DialTimeout. The result
// matches the dist layer's Config.Dial hook.
func (in *Injector) Dialer(base func(network, addr string, timeout time.Duration) (net.Conn, error)) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	if base == nil {
		base = net.DialTimeout
	}
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		if in.dead() {
			return nil, ErrInjectedCrash
		}
		c, err := base(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		if in.dead() {
			c.Close()
			return nil, ErrInjectedCrash
		}
		return in.Conn(c), nil
	}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	if l.in.dead() {
		return nil, ErrInjectedCrash
	}
	if l.in.roll(l.in.cfg.AcceptFail) {
		return nil, ErrInjectedAcceptFailure
	}
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Conn(c), nil
}

// conn is a net.Conn with injected faults. It tracks deadlines itself so
// injected waits (latency, throttle, hang) end when the deadline does —
// matching what a real kernel socket would do.
type conn struct {
	net.Conn
	in *Injector

	txBlackhole bool // writes vanish silently
	rxBlackhole bool // reads block forever

	closeOnce sync.Once
	closed    chan struct{}

	dlMu sync.Mutex
	//aggvet:guard dlMu
	readDeadline time.Time
	//aggvet:guard dlMu
	writeDeadline time.Time
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.dlMu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.writeDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *conn) deadline(write bool) time.Time {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	if write {
		return c.writeDeadline
	}
	return c.readDeadline
}

// wait sleeps for d but returns early (with the appropriate error) if the
// connection closes or the relevant deadline expires first. d <= 0 is a
// no-op. A negative d means "forever" (the hang fault).
func (c *conn) wait(d time.Duration, write bool) error {
	if d == 0 {
		return nil
	}
	var sleep <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		sleep = t.C
	}
	var expire <-chan time.Time
	if dl := c.deadline(write); !dl.IsZero() {
		t := time.NewTimer(time.Until(dl))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-sleep:
		return nil
	case <-c.closed:
		return net.ErrClosed
	case <-expire:
		return os.ErrDeadlineExceeded
	}
}

// reset closes the connection so the peer sees a hard failure. For TCP we
// set SO_LINGER 0 first so the close emits RST rather than FIN.
func (c *conn) reset() error {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
	return ErrInjectedReset
}

// before runs the faults shared by Read and Write: hang, reset, latency,
// bandwidth throttle (for n payload bytes; a Read is charged after it).
func (c *conn) before(n int, write bool) error {
	if c.in.roll(c.in.cfg.Hang) {
		if err := c.wait(-1, write); err != nil {
			return err
		}
	}
	if c.in.roll(c.in.cfg.Reset) {
		return c.reset()
	}
	return c.wait(c.in.jittered()+c.charge(n), write)
}

// charge is the bandwidth throttle's sleep for n payload bytes.
func (c *conn) charge(n int) time.Duration {
	if c.in.cfg.Bandwidth <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(c.in.cfg.Bandwidth) * float64(time.Second))
}

func (c *conn) Read(p []byte) (int, error) {
	if killed, hung := c.in.opTick(false); killed {
		c.Close()
		return 0, ErrInjectedCrash
	} else if hung {
		if err := c.wait(-1, false); err != nil {
			return 0, err
		}
	}
	if c.rxBlackhole {
		// Inbound half of the link is gone: block until deadline/close.
		if err := c.wait(-1, false); err != nil {
			return 0, err
		}
	}
	if err := c.before(0, false); err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(p)
	if werr := c.wait(c.charge(n), false); err == nil { // the bytes it returned, not the buffer's length
		err = werr
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	if killed, hung := c.in.opTick(true); killed {
		c.Close()
		return 0, ErrInjectedCrash
	} else if hung {
		if err := c.wait(-1, true); err != nil {
			return 0, err
		}
	}
	if c.txBlackhole {
		// Outbound half of the link is gone: pretend success, deliver
		// nothing. The sender only learns via the liveness protocol.
		return len(p), nil
	}
	if err := c.before(len(p), true); err != nil {
		return 0, err
	}
	if len(p) > 0 && c.in.roll(c.in.cfg.PartialWrite) {
		n := c.in.cut(len(p))
		if n > 0 {
			if wn, err := c.Conn.Write(p[:n]); err != nil {
				return wn, err
			}
		}
		return n, c.reset()
	}
	return c.Conn.Write(p)
}
