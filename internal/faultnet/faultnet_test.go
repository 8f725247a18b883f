package faultnet

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// pipePair returns two ends of a loopback TCP connection, the client side
// wrapped by in (nil = unwrapped).
func pipePair(t *testing.T, in *Injector) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	if cerr != nil {
		t.Fatal(cerr)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		client = in.Conn(client)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestLatencyInjection(t *testing.T) {
	in := New(Config{Latency: 30 * time.Millisecond})
	client, server := pipePair(t, in)
	go server.Write([]byte("x"))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("read returned in %v, want >= 30ms latency", d)
	}
}

func TestBandwidthThrottle(t *testing.T) {
	// 1 KiB at 10 KiB/s should take ~100ms.
	in := New(Config{Bandwidth: 10 * 1024})
	client, server := pipePair(t, in)
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := client.Write(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Errorf("1KiB at 10KiB/s took %v, want ~100ms", d)
	}
}

func TestBandwidthReadChargesBytesRead(t *testing.T) {
	// 1 KiB read through a 64 KiB buffer at 10 KiB/s: ~100ms, not the
	// 6.4 s a full buffer would cost.
	in := New(Config{Bandwidth: 10 * 1024})
	client, server := pipePair(t, in)
	go server.Write(make([]byte, 1024))
	start := time.Now()
	buf := make([]byte, 64*1024)
	for got := 0; got < 1024; {
		n, err := client.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	if d := time.Since(start); d < 80*time.Millisecond || d >= time.Second {
		t.Errorf("1KiB read at 10KiB/s took %v, want ~100ms", d)
	}
}

func TestResetInjection(t *testing.T) {
	in := New(Config{Reset: 1})
	client, _ := pipePair(t, in)
	if _, err := client.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want ErrInjectedReset", err)
	}
	// The connection really is closed afterwards.
	if _, err := client.Write([]byte("x")); err == nil {
		t.Error("write after reset succeeded")
	}
}

func TestPartialWriteTruncatesThenResets(t *testing.T) {
	in := New(Config{PartialWrite: 1, Seed: 7})
	client, server := pipePair(t, in)
	payload := make([]byte, 4096)
	n, err := client.Write(payload)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want ErrInjectedReset", err)
	}
	if n >= len(payload) {
		t.Fatalf("partial write delivered all %d bytes", n)
	}
	// The server observes at most the prefix, then a broken connection.
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := 0
	buf := make([]byte, 8192)
	for {
		rn, rerr := server.Read(buf)
		got += rn
		if rerr != nil {
			break
		}
	}
	if got > n {
		t.Errorf("server read %d bytes, injector reported %d written", got, n)
	}
}

func TestHangRespectsDeadline(t *testing.T) {
	in := New(Config{Hang: 1})
	client, _ := pipePair(t, in)
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := client.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("hung read took %v to honour a 50ms deadline", d)
	}
}

func TestHangUnblocksOnClose(t *testing.T) {
	in := New(Config{Hang: 1})
	client, _ := pipePair(t, in)
	errc := make(chan error, 1)
	go func() {
		_, err := client.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	client.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("err = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hung read did not unblock on Close")
	}
}

func TestAcceptFailureIsTemporary(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	in := New(Config{AcceptFail: 1})
	wrapped := in.Listener(ln)
	_, err = wrapped.Accept()
	if !errors.Is(err, ErrInjectedAcceptFailure) {
		t.Fatalf("err = %v, want ErrInjectedAcceptFailure", err)
	}
	var tmp interface{ Temporary() bool }
	if !errors.As(err, &tmp) || !tmp.Temporary() {
		t.Error("injected accept failure is not temporary")
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	in := New(Config{Reset: 1})
	wrapped := in.Listener(ln)
	go net.Dial("tcp", ln.Addr().String())
	c, err := wrapped.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("accepted conn not fault-wrapped: err = %v", err)
	}
}

func TestDialerWrapsConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ln.Accept()
	in := New(Config{Reset: 1})
	dial := in.Dialer(nil)
	c, err := dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("dialed conn not fault-wrapped: err = %v", err)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	// Same seed, same fault decisions.
	sample := func(seed int64) []bool {
		in := New(Config{Reset: 0.5, Seed: seed})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.roll(in.cfg.Reset)
		}
		return out
	}
	a, b := sample(42), sample(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs for identical seeds", i)
		}
	}
}

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("latency=2ms,jitter=1ms,bw=1024,partial=0.25,reset=0.5,hang=0.125,acceptfail=0.75,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Latency: 2 * time.Millisecond, Jitter: time.Millisecond,
		Bandwidth: 1024, PartialWrite: 0.25, Reset: 0.5,
		Hang: 0.125, AcceptFail: 0.75, Seed: 9,
	}
	if c != want {
		t.Errorf("ParseSpec = %+v, want %+v", c, want)
	}
	if c, err := ParseSpec(""); err != nil || c != (Config{}) {
		t.Errorf("empty spec: %+v, %v", c, err)
	}
	for _, bad := range []string{"latency", "nope=1", "reset=x", "latency=5"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestParseSpecNegativePaths(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string // substring of the error
	}{
		{"bare key", "latency", "want key=value"},
		{"empty entry", "latency=2ms,,bw=1", "want key=value"},
		{"missing key", "=5", "unknown spec key"},
		{"unknown key", "lattency=2ms", "unknown spec key"},
		{"duration without unit", "latency=5", "missing unit"},
		{"garbage duration", "jitter=fast", "invalid duration"},
		{"float bandwidth", "bw=1.5", "invalid syntax"},
		{"garbage probability", "reset=often", "invalid syntax"},
		{"garbage seed", "seed=abc", "invalid syntax"},
		{"probability above one", "partial=1.5", "not a probability"},
		{"negative probability", "hang=-0.1", "not a probability"},
		{"reset out of range", "reset=2", "not a probability"},
		{"acceptfail out of range", "acceptfail=1.01", "not a probability"},
		{"negative latency", "latency=-2ms", "negative latency"},
		{"negative jitter", "jitter=-1ms", "negative jitter"},
		{"negative bandwidth", "bw=-1024", "negative bandwidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.spec)
			if err == nil {
				t.Fatalf("ParseSpec(%q) accepted, want error containing %q", tc.spec, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParseSpec(%q) error = %q, want substring %q", tc.spec, err, tc.want)
			}
		})
	}

	// Boundary values are valid, not errors.
	for _, spec := range []string{"partial=0", "partial=1", "reset=0.0", "hang=1.0", "bw=0", "latency=0s", "seed=-9"} {
		if _, err := ParseSpec(spec); err != nil {
			t.Errorf("ParseSpec(%q) rejected boundary value: %v", spec, err)
		}
	}
}
