package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/client"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
)

// grant is one hold as the benchmark sees it, whichever front-end
// granted it.
type grant struct {
	key     int
	name    string
	shard   int
	node    mutex.ID
	fence   uint64
	expires time.Time
}

// locker is the surface the load generators drive: one front-end of
// the lock service (an in-process member, or a dialed connection).
type locker interface {
	acquire(ctx context.Context, key int, name string) (grant, error)
	release(g grant) error
}

// serviceLocker acquires in process through one member.
type serviceLocker struct{ svc holdAPI }

func (l serviceLocker) acquire(ctx context.Context, key int, name string) (grant, error) {
	h, err := l.svc.Acquire(ctx, name)
	return grant{key: key, name: name, shard: h.Shard, node: h.Node, fence: h.Fence, expires: h.Expires}, err
}

func (l serviceLocker) release(g grant) error {
	return l.svc.ReleaseHold(lockservice.Hold{Resource: g.name, Shard: g.shard, Node: g.node, Fence: g.fence, Expires: g.expires})
}

// connLocker acquires over one dialed client connection (to a member's
// client listener or to a gateway). shards is the service's shard
// count, so the grant carries the shard its fence belongs to.
type connLocker struct {
	c      *client.Conn
	shards int
}

func (l connLocker) acquire(ctx context.Context, key int, name string) (grant, error) {
	h, err := l.c.Acquire(ctx, name)
	return grant{key: key, name: name, shard: lockservice.KeyShard(name, l.shards), fence: h.Fence, expires: h.Expires}, err
}

func (l connLocker) release(g grant) error {
	return l.c.ReleaseHold(client.Hold{Resource: g.name, Fence: g.fence, Expires: g.expires})
}

// safety checks mutual exclusion and fencing from outside the program:
// a per-key holder flag set by CAS on every grant and cleared before
// the release is sent, and a per-key fence that must strictly grow.
type safety struct {
	held  []atomic.Bool
	fence []atomic.Uint64

	mu         sync.Mutex
	violations []string
}

func newSafety(keys int) *safety {
	return &safety{held: make([]atomic.Bool, keys), fence: make([]atomic.Uint64, keys)}
}

// errViolation marks a safety violation, as opposed to an ordinary
// failed acquire.
var errViolation = errors.New("safety violation")

func (s *safety) violate(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	s.mu.Lock()
	if len(s.violations) < 16 {
		s.violations = append(s.violations, msg)
	}
	s.mu.Unlock()
	return fmt.Errorf("%w: %s", errViolation, msg)
}

// acquire takes key through lk and checks the grant. On a violation
// the grant is still returned (ok is false) so the caller can hand it
// back.
func (s *safety) acquire(ctx context.Context, lk locker, key int, name string) (g grant, ok bool, err error) {
	g, err = lk.acquire(ctx, key, name)
	if err != nil {
		return g, false, err
	}
	if !s.held[key].CompareAndSwap(false, true) {
		return g, false, s.violate("double grant of %q (fence %d)", name, g.fence)
	}
	for {
		last := s.fence[key].Load()
		if g.fence <= last {
			s.held[key].Store(false)
			return g, false, s.violate("fence regression on %q: %d after %d", name, g.fence, last)
		}
		if s.fence[key].CompareAndSwap(last, g.fence) {
			return g, true, nil
		}
	}
}

// release clears the holder flag, then releases; a release that
// reports an expired lease means another holder may have overlapped.
func (s *safety) release(lk locker, g grant, ok bool) error {
	if ok {
		s.held[g.key].Store(false)
	}
	err := lk.release(g)
	if errors.Is(err, lockservice.ErrLeaseExpired) {
		return s.violate("lease of %q expired before release (fence %d)", g.name, g.fence)
	}
	return err
}

// failed reports the recorded violations (nil when none).
func (s *safety) failed() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.violations...)
}
