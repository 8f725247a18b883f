//go:build goexperiment.synctest

package dist

import (
	"errors"
	"net"
	"testing"
	"testing/synctest"
	"time"
)

// On a virtual clock a backoff sleep capped at time.Until(deadline) wakes
// exactly at the deadline. dialPeer must give up there: a check that only
// fires strictly after it computes a zero sleep and redials forever
// without the clock ever moving.
//
// Run with: GOEXPERIMENT=synctest go test -run TestDialPeerStopsAtExactDeadline ./internal/dist/
func TestDialPeerStopsAtExactDeadline(t *testing.T) {
	synctest.Run(func() {
		refused := errors.New("connection refused")
		cfg := Config{
			ID:    0,
			Addrs: []string{"node0", "node1"},
			Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
				return nil, refused
			},
		}
		deadline := time.Now().Add(2 * time.Second)
		conn, err := dialPeer(cfg, 1, deadline, jitterRand(cfg), newCanceller(nil), nil)
		if conn != nil {
			t.Fatal("dialPeer returned a connection from a dialer that always fails")
		}
		var ne *NodeError
		if !errors.As(err, &ne) || ne.Phase != PhaseDial || ne.Peer != 1 || !errors.Is(err, refused) {
			t.Fatalf("dialPeer error = %v, want a dial-phase NodeError for peer 1", err)
		}
		if time.Now().Before(deadline) {
			t.Errorf("dialPeer gave up at %v, before its deadline %v", time.Now(), deadline)
		}
	})
}
