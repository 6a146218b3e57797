package vclock

import (
	"sync"
	"time"

	"dagmutex/internal/sched"
)

// Virtual is the deterministic clock: time is a number that moves only
// when Advance says so, and every AfterFunc callback due in the window
// runs, in order, on the goroutine doing the advancing. The event queue
// is internal/sched's scheduler with one tick per nanosecond.
//
// Ordering is total and reproducible: callbacks run in (time, scheduling
// order) — two callbacks due at the same instant run in the order they
// were armed, every run.
//
// Concurrency model. The clock is safe for concurrent use (any goroutine
// may read Now or arm and stop timers), but time advances
// single-threadedly: exactly one goroutine — the test, or the harness
// loop — calls Advance, and callbacks run synchronously on it. Nothing
// parks on the clock, so Advance never waits for other goroutines; work
// a callback hands to another goroutine (a mailbox put, a channel send)
// runs there at its own pace, and a test that needs its effect waits on
// that effect, not on the clock.
type Virtual struct {
	mu    sync.Mutex
	sched *sched.Scheduler
	base  time.Time
}

// NewVirtual returns a virtual clock at a fixed epoch (2000-01-01 UTC —
// arbitrary, non-zero so lease deadlines survive IsZero checks).
func NewVirtual() *Virtual {
	return &Virtual{
		sched: sched.NewScheduler(),
		base:  time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

func (v *Virtual) nowLocked() time.Time {
	return v.base.Add(time.Duration(v.sched.Now()))
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.nowLocked()
}

// Since returns Now().Sub(t).
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Until returns t.Sub(Now()).
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// Elapsed returns how much virtual time has passed since the epoch.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return time.Duration(v.sched.Now())
}

// scheduleLocked arms one event d from now and returns its handle.
// Caller holds v.mu.
func (v *Virtual) scheduleLocked(d time.Duration, fn func()) *sched.Event {
	if d < 0 {
		d = 0
	}
	return v.sched.AfterEvent(sched.Time(d), fn)
}

// Advance moves virtual time forward by d, running every callback due in
// the window in deterministic order; a callback may arm further
// callbacks, and those due within the window run too.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("vclock: negative advance")
	}
	v.mu.Lock()
	target := v.sched.Now() + sched.Time(d)
	for {
		fn, ok := v.sched.PopDue(target)
		if !ok {
			break
		}
		v.mu.Unlock() // callbacks re-enter the clock
		fn()
		v.mu.Lock()
	}
	v.sched.AdvanceTo(target)
	v.mu.Unlock()
}

// AfterFunc schedules fn to run once, d from now, on the advancing
// goroutine. The returned Timer's Stop/Reset control the scheduling.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	t := &vtimer{v: v, fn: fn}
	v.mu.Lock()
	t.ev = v.scheduleLocked(d, t.fire)
	v.mu.Unlock()
	return t
}

// vtimer is one virtual AfterFunc: a scheduled event handle plus the
// callback it runs.
type vtimer struct {
	v  *Virtual
	fn func()
	ev *sched.Event // guarded by v.mu; nil once fired or stopped
}

// fire runs as the scheduler callback, on the advancing goroutine and
// outside v.mu.
func (t *vtimer) fire() {
	t.v.mu.Lock()
	t.ev = nil
	t.v.mu.Unlock()
	t.fn()
}

func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	armed := t.ev != nil && t.ev.Cancel()
	t.ev = nil
	return armed
}

func (t *vtimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	armed := t.ev != nil && t.ev.Cancel()
	t.ev = t.v.scheduleLocked(d, t.fire)
	return armed
}
