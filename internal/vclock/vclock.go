// Package vclock abstracts time for every layer that schedules or
// stamps: a Clock interface with two implementations. Real delegates to
// package time and is what production code runs on; Virtual is a
// deterministic fake whose time advances only when the test or harness
// says so, built on the shared internal/sched event queue (one tick =
// one nanosecond), so simulated hours of lease churn and heartbeat
// traffic complete in milliseconds of wall clock.
//
// The rule every clocked subsystem follows: it schedules callbacks and
// nothing blocks on the clock. The lock service's lease sweeper and
// rebalance ticker, the failure detector's heartbeat, the runtime
// proxy's expiry, the Local transport's delay lines and every simulation
// harness event are AfterFunc callbacks (a periodic loop is a callback
// that re-arms its own Timer), and the gateway's backoff only compares
// deadlines with Now. So a Virtual clock never has to know which
// goroutines are waiting on it: advancing time is running the due
// callbacks in order. The Clock is threaded from the facade's WithClock
// option; a nil Clock everywhere means Real.
package vclock

import "time"

// Clock is the time surface the subsystems consume. All methods mirror
// their package-time counterparts.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until returns t.Sub(Now()).
	Until(t time.Time) time.Duration
	// AfterFunc schedules fn to run once, d from now, and returns a
	// Timer whose Stop/Reset control the scheduling. On a Virtual clock
	// fn runs on the goroutine advancing time; on Real it runs on its
	// own goroutine, exactly like time.AfterFunc.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer controls one AfterFunc callback; Stop and Reset follow
// time.Timer's contracts.
type Timer interface {
	// Stop withdraws the callback, reporting whether it was still armed.
	Stop() bool
	// Reset re-arms the callback for d from now, reporting whether it
	// was still armed.
	Reset(d time.Duration) bool
}

// Real is the production clock: every method delegates to package time.
// The zero value is ready to use and stateless.
type Real struct{}

var system Clock = Real{}

// System returns the shared Real clock.
func System() Clock { return system }

// Or returns c, or the shared Real clock when c is nil — the idiom every
// subsystem applies to its optional Clock configuration field.
func Or(c Clock) Clock {
	if c == nil {
		return system
	}
	return c
}

func (Real) Now() time.Time                  { return time.Now() }
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }
func (Real) Until(t time.Time) time.Duration { return time.Until(t) }

func (Real) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }
