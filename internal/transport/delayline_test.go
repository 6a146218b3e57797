package transport

import (
	"testing"
	"time"

	"dagmutex/internal/failure"
	"dagmutex/internal/mutex"
	"dagmutex/internal/vclock"
)

// seqMsg is a numbered probe message for the delay-line tests.
type seqMsg int

func (seqMsg) Kind() string { return "SEQ" }
func (seqMsg) Size() int    { return 8 }

// recorder is a protocol node that only forwards what it is delivered,
// in delivery order, to a shared channel.
type recorder struct {
	id  mutex.ID
	got chan<- seqMsg
}

func (r *recorder) ID() mutex.ID           { return r.id }
func (r *recorder) Request() error         { return nil }
func (r *recorder) Release() error         { return nil }
func (r *recorder) Storage() mutex.Storage { return mutex.Storage{} }
func (r *recorder) Deliver(_ mutex.ID, m mutex.Message) error {
	r.got <- m.(seqMsg)
	return nil
}

// marker is sent over an undelayed link to the same receiver: anything
// the delay line released before the marker was sent is delivered ahead
// of it.
const marker seqMsg = -1

// TestLocalDelayLineOnVirtualClock drives the Local transport's per-link
// delay line on a virtual clock: delayed traffic is delivered only once
// time passes its deadline, the link stays FIFO when its delay shrinks
// mid-flight or is cleared, and Close drops what is still in flight.
func TestLocalDelayLineOnVirtualClock(t *testing.T) {
	v := vclock.NewVirtual()
	inj := failure.NewInjector()
	got := make(chan seqMsg, 64)
	envs := make(map[mutex.ID]mutex.Env)
	build := func(id mutex.ID, env mutex.Env, _ mutex.Config) (mutex.Node, error) {
		envs[id] = env
		return &recorder{id: id, got: got}, nil
	}
	l, err := NewLocal(build, mutex.Config{IDs: []mutex.ID{1, 2, 3}, Holder: 1}, WithClock(v), WithInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	send := func(from mutex.ID, m seqMsg) { envs[from].Send(2, m) }
	await := func(want ...seqMsg) {
		t.Helper()
		for i, w := range want {
			select {
			case m := <-got:
				if m != w {
					t.Fatalf("delivery %d = %d, want %d (sequence %v)", i, m, w, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("delivery %d (%d) never arrived (sequence %v)", i, w, want)
			}
		}
	}
	// expect awaits want, then checks nothing else has been released.
	expect := func(want ...seqMsg) {
		t.Helper()
		await(want...)
		send(3, marker)
		await(marker)
	}

	// Delivery waits for the deadline, then releases the burst in order.
	inj.SetDelay(1, 2, 10*time.Millisecond)
	send(1, 1)
	send(1, 2)
	v.Advance(time.Millisecond)
	send(1, 3)
	v.Advance(9*time.Millisecond - 1)
	expect()
	v.Advance(1)
	expect(1, 2)
	v.Advance(time.Millisecond)
	expect(3)

	// A shrunk delay must not let a later message overtake an earlier one.
	send(1, 4) // due at +10ms
	v.Advance(5 * time.Millisecond)
	inj.SetDelay(1, 2, time.Millisecond)
	send(1, 5) // would be due at +6ms, clamped behind 4
	v.Advance(2 * time.Millisecond)
	expect()
	v.Advance(3 * time.Millisecond)
	expect(4, 5)

	// Clearing the delay keeps the link routed through its line until the
	// queued traffic has drained ahead of the new message.
	inj.SetDelay(1, 2, 10*time.Millisecond)
	send(1, 6)
	inj.SetDelay(1, 2, 0)
	send(1, 7)
	v.Advance(time.Millisecond)
	expect()
	v.Advance(9 * time.Millisecond)
	expect(6, 7)
	send(1, 8) // the line is empty: a cleared delay delivers without waiting
	await(8)

	// Close drops traffic still waiting on the line.
	inj.SetDelay(1, 2, 10*time.Millisecond)
	send(1, 9)
	l.Close()
	v.Advance(time.Hour)
	select {
	case m := <-got:
		t.Fatalf("message %d delivered after Close", m)
	default:
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
}
