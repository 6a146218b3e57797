package vclock

import (
	"testing"
	"time"
)

func TestVirtualNowAdvances(t *testing.T) {
	v := NewVirtual()
	t0 := v.Now()
	v.Advance(90 * time.Minute)
	if got := v.Now().Sub(t0); got != 90*time.Minute {
		t.Fatalf("advanced %v, want 90m", got)
	}
	if v.Since(t0) != 90*time.Minute {
		t.Fatalf("Since = %v", v.Since(t0))
	}
	if v.Until(t0.Add(2*time.Hour)) != 30*time.Minute {
		t.Fatalf("Until = %v", v.Until(t0.Add(2*time.Hour)))
	}
}

func TestVirtualTimerFiresAtDeadline(t *testing.T) {
	v := NewVirtual()
	var firedAt time.Time
	v.AfterFunc(50*time.Millisecond, func() { firedAt = v.Now() })
	v.Advance(49 * time.Millisecond)
	if !firedAt.IsZero() {
		t.Fatal("timer fired early")
	}
	v.Advance(time.Millisecond)
	if firedAt.IsZero() {
		t.Fatal("timer did not fire at its deadline")
	}
	if want := v.Now(); !firedAt.Equal(want) {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
}

func TestVirtualTimerStopAndReset(t *testing.T) {
	v := NewVirtual()
	fired := 0
	tm := v.AfterFunc(10*time.Millisecond, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	v.Advance(20 * time.Millisecond)
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	if tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset of a stopped timer reported armed")
	}
	if !tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset of an armed timer reported not armed")
	}
	v.Advance(5 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("reset timer fired %d times, want once", fired)
	}
	if tm.Stop() {
		t.Fatal("Stop after firing reported armed")
	}
}

func TestVirtualAfterFuncChain(t *testing.T) {
	// The periodic-loop idiom every subsystem uses: an AfterFunc that
	// re-arms itself. 1000 virtual seconds of 1s ticks in microseconds.
	v := NewVirtual()
	var ticks int
	var tm Timer
	tm = v.AfterFunc(time.Second, func() {
		ticks++
		tm.Reset(time.Second)
	})
	v.Advance(1000 * time.Second)
	if ticks != 1000 {
		t.Fatalf("ticks = %d, want 1000", ticks)
	}
}

func TestVirtualSameInstantOrder(t *testing.T) {
	// Two events due at the same instant fire in arming order — the
	// determinism the trace-diff test leans on.
	v := NewVirtual()
	var order []int
	v.AfterFunc(time.Second, func() { order = append(order, 1) })
	v.AfterFunc(time.Second, func() { order = append(order, 2) })
	v.AfterFunc(500*time.Millisecond, func() { order = append(order, 0) })
	v.Advance(time.Second)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
}

func TestOrDefaultsToSystem(t *testing.T) {
	if Or(nil) != System() {
		t.Fatal("Or(nil) is not the system clock")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Fatal("Or(v) did not pass v through")
	}
}

func TestRealClockSmoke(t *testing.T) {
	c := System()
	t0 := c.Now()
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	<-fired
	if c.Since(t0) <= 0 {
		t.Fatal("real time did not advance")
	}
}
