package gateway

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/client"
	"dagmutex/internal/transport"
)

// TestClientStatsSnapshotConsistency hammers the gateway from several
// dialed clients while concurrently snapshotting Stats, and checks every
// snapshot is one consistent cut of the admission counters: always
// Inflight == Admitted - Answered, inflight never negative, and at
// quiescence everything admitted has been answered. Under the race
// detector this also proves the counter updates are synchronized with
// the snapshot.
func TestClientStatsSnapshotConsistency(t *testing.T) {
	g, _, _ := gatewayCluster(t, false, transport.ClientQueue{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := g.Stats()
			if s.Inflight != s.Admitted-s.Answered || s.Inflight < 0 || s.Conns < 0 {
				snapErr = fmt.Errorf("inconsistent admission snapshot: %+v", s)
				return
			}
		}
	}()

	const clients, ops = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := client.DialContext(ctx, g.Addr())
			if err != nil {
				t.Errorf("dial gateway: %v", err)
				return
			}
			defer conn.Close()
			for j := 0; j < ops; j++ {
				h, err := conn.Acquire(ctx, "")
				if err != nil {
					t.Errorf("client %d acquire: %v", i, err)
					return
				}
				if err := conn.ReleaseHold(h); err != nil {
					t.Errorf("client %d release: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	s := g.Stats()
	if s.Inflight != 0 || s.Admitted != s.Answered {
		t.Fatalf("at quiescence inflight=%d admitted=%d answered=%d", s.Inflight, s.Admitted, s.Answered)
	}
	// Every acquire and release was admitted (no sheds configured here).
	if want := int64(clients * ops); s.Admitted < want {
		t.Fatalf("admitted %d, want at least %d", s.Admitted, want)
	}
	if s.Shed() != 0 {
		t.Fatalf("unexpected sheds: %+v", s)
	}
}

// grantAllBackend grants every acquire at once with the next fence; it
// isolates the listener's admission path from any protocol latency.
type grantAllBackend struct{ fence atomic.Uint64 }

func (b *grantAllBackend) Acquire(context.Context, string) (uint64, time.Time, error) {
	return b.fence.Add(1), time.Time{}, nil
}

func (b *grantAllBackend) TryAcquire(string) (uint64, time.Time, bool, error) {
	return b.fence.Add(1), time.Time{}, true, nil
}

func (b *grantAllBackend) Release(string, uint64) error { return nil }

// TestSerializedClientAtDepthOneIsNeverShed pins the admission order: a
// request's depth slot is returned before its reply is written, so a
// client that waits for each answer before sending its next acquire is
// never shed, even at the tightest bound (Depth<0 means one in flight).
func TestSerializedClientAtDepthOneIsNeverShed(t *testing.T) {
	g, err := transport.NewClientGatewayWith("", &grantAllBackend{}, transport.ClientQueue{Depth: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	conn, err := client.Dial(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5000; i++ {
		h, err := conn.Acquire(context.Background(), "k")
		if err != nil {
			t.Fatalf("cycle %d: acquire: %v", i, err)
		}
		if err := conn.ReleaseHold(h); err != nil {
			t.Fatalf("cycle %d: release: %v", i, err)
		}
	}
	if s := g.Stats(); s.ShedDepth != 0 {
		t.Fatalf("serialized client shed by depth: %+v", s)
	}
}
