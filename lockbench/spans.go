package main

import (
	"sort"
	"sync"

	"dagmutex/internal/telemetry"
)

// Span names recorded around the calls into each layer.
const (
	spanCycle   uint8 = iota // one closed-loop cycle: acquire, check, release
	spanAcquire              // the front-end's Acquire call
	spanRelease              // the front-end's ReleaseHold call
)

// span is one timed call. Times are ns on the run's monotonic clock.
// Parent indexes the caller's span in the same buffer (-1 for a root);
// shard and fence identify the grant the span belongs to, which is how
// spans join the core's trace events.
type span struct {
	parent     int32
	name       uint8
	shard      int32
	fence      uint64
	start, end int64
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.end - s.start) - covered(kids[int32(i)], s.start, s.end)
	}
	return out
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := int64(lo)
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// grantKey joins a benchmark span to the core event of the same grant.
type grantKey struct {
	shard int32
	fence uint64
}

// grantEvent is one GRANT the core reported. A cohort handoff is a
// GRANT too; the service's REGRANT event marks the release that handed
// off and carries the released fence, so it is not a grant instant.
type grantEvent struct {
	key grantKey
	at  int64
}

// coreEvents keeps the instant of every grant the members report
// through lockservice.Config.TraceObserver. The observer runs on
// protocol goroutines, so it only appends under a lock into a buffer
// sized up front; events past its capacity are counted, not kept.
type coreEvents struct {
	clock func() int64

	mu      sync.Mutex
	grants  []grantEvent
	dropped int64
}

func newCoreEvents(clock func() int64, limit int) *coreEvents {
	return &coreEvents{clock: clock, grants: make([]grantEvent, 0, limit)}
}

func (c *coreEvents) observe(ev telemetry.TraceEvent) {
	if ev.Kind != telemetry.TraceGrant {
		return
	}
	at := c.clock()
	c.mu.Lock()
	if len(c.grants) < cap(c.grants) {
		c.grants = append(c.grants, grantEvent{grantKey{ev.Shard, ev.Fence}, at})
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// index returns the recorded grants keyed for joining, and how many
// did not fit the buffer.
func (c *coreEvents) index() (map[grantKey]int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[grantKey]int64, len(c.grants))
	for _, g := range c.grants {
		m[g.key] = g.at
	}
	return m, c.dropped
}
