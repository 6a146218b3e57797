package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/topology"
)

func dagConfig(tree *topology.Tree, holder mutex.ID) mutex.Config {
	return mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}
}

func TestLocalMutualExclusionUnderConcurrency(t *testing.T) {
	tree := topology.Star(8)
	l, err := NewLocal(core.Builder, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var inCS atomic.Int64
	var total atomic.Int64
	var wg sync.WaitGroup
	const perNode = 20
	for _, id := range tree.IDs() {
		h := l.Session(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < perNode; i++ {
				if _, err := h.Acquire(ctx); err != nil {
					t.Errorf("node %d acquire: %v", h.ID(), err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("mutual exclusion violated: %d nodes in CS", got)
				}
				total.Add(1)
				inCS.Add(-1)
				if err := h.Release(); err != nil {
					t.Errorf("node %d release: %v", h.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != perNode*8 {
		t.Fatalf("entries = %d, want %d", got, perNode*8)
	}
	if l.Messages() == 0 {
		t.Fatal("no messages recorded")
	}
}

func TestLocalHolderAcquiresWithoutMessages(t *testing.T) {
	tree := topology.Line(3)
	l, err := NewLocal(core.Builder, dagConfig(tree, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h := l.Session(2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := h.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if got := l.Messages(); got != 0 {
		t.Fatalf("messages = %d, want 0", got)
	}
}

func TestLocalDoubleAcquireFails(t *testing.T) {
	tree := topology.Line(2)
	l, err := NewLocal(core.Builder, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h := l.Session(1)
	ctx := context.Background()
	if _, err := h.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Acquire(ctx); err == nil {
		t.Fatal("second acquire while holding must fail")
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalUnknownHandle(t *testing.T) {
	tree := topology.Line(2)
	l, err := NewLocal(core.Builder, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if h := l.Session(42); h != nil {
		t.Fatal("handle for unknown node must be nil")
	}
}

func TestMailboxOrderAndClose(t *testing.T) {
	m := newMailbox[int]()
	if _, ok := m.tryGet(); ok {
		t.Fatal("tryGet on empty mailbox must fail")
	}
	for i := 0; i < 10; i++ {
		m.put(i + 1)
	}
	m.close()
	for i := 0; i < 10; i++ {
		v, ok := m.get()
		if !ok || v != i+1 {
			t.Fatalf("get %d = (%v, %v)", i, v, ok)
		}
	}
	if _, ok := m.get(); ok {
		t.Fatal("get after drain on closed mailbox must fail")
	}
	m.put(99) // dropped silently after close
	if _, ok := m.tryGet(); ok {
		t.Fatal("put after close must be dropped")
	}
}

func TestDAGCodecRoundTrip(t *testing.T) {
	c := DAGCodec{}
	msgs := []mutex.Message{
		core.Request{From: 3, Origin: 7},
		core.Request{From: 3, Origin: 7, Epoch: 9},
		core.Privilege{},
		core.Privilege{Generation: 42},
		core.Privilege{Generation: 42, Epoch: 3},
		failure.Heartbeat{},
		core.Probe{Epoch: 5, Dead: 2},
		core.ProbeAck{Epoch: 5, HasToken: true, Requesting: true, Generation: 77},
		core.ProbeAck{Epoch: 5},
		core.Reorient{Epoch: 5, Next: 4, Follow: 2, Token: true},
		core.Reorient{Epoch: 5},
		core.Join{},
		core.Welcome{Epoch: 6},
	}
	for _, m := range msgs {
		b, err := c.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := c.Decode(b)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip %#v -> %#v", m, got)
		}
	}
}

func TestDAGCodecRejectsGarbage(t *testing.T) {
	c := DAGCodec{}
	cases := [][]byte{
		nil,
		{},
		{99},                           // unknown tag
		{1, 0, 0},                      // short REQUEST
		{2, 0},                         // short PRIVILEGE (missing generation)
		{2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // oversized PRIVILEGE
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // oversized REQUEST
	}
	for _, b := range cases {
		if _, err := c.Decode(b); err == nil {
			t.Fatalf("Decode(%v) accepted garbage", b)
		}
	}
	if _, err := c.Encode(fakeMsg{}); err == nil {
		t.Fatal("Encode accepted a foreign message type")
	}
}

type fakeMsg struct{}

func (fakeMsg) Kind() string { return "FAKE" }
func (fakeMsg) Size() int    { return 0 }

func TestTCPClusterMutualExclusion(t *testing.T) {
	tree := topology.Star(5)
	cfg := dagConfig(tree, 1)
	nodes := make(map[mutex.ID]*TCPNode, tree.N())
	addrs := make(map[mutex.ID]string, tree.N())
	for _, id := range tree.IDs() {
		n, err := NewTCPNode(id, core.Builder, cfg, DAGCodec{})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[id] = n
		addrs[id] = n.Addr()
	}
	for _, n := range nodes {
		n.Connect(addrs)
	}

	var inCS atomic.Int64
	var wg sync.WaitGroup
	const perNode = 10
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < perNode; i++ {
				if _, err := n.Acquire(ctx); err != nil {
					t.Errorf("node %d acquire: %v", n.ID(), err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("mutual exclusion violated over TCP: %d in CS", got)
				}
				inCS.Add(-1)
				if err := n.Release(); err != nil {
					t.Errorf("node %d release: %v", n.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for id, n := range nodes {
		if err := n.Err(); err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	sent, received := int64(0), int64(0)
	for _, n := range nodes {
		s, r := n.Stats()
		sent += s
		received += r
	}
	if sent == 0 || sent != received {
		t.Fatalf("sent %d received %d; want equal and nonzero", sent, received)
	}
}

func TestTCPAcquireTimesOutWithoutPeers(t *testing.T) {
	tree := topology.Line(2)
	cfg := dagConfig(tree, 2)
	// Node 1 needs node 2 to get the token, but node 2 never exists.
	n, err := NewTCPNode(1, core.Builder, cfg, DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Connect(map[mutex.ID]string{1: n.Addr()}) // no address for node 2
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := n.Acquire(ctx); err == nil {
		t.Fatal("acquire must fail with the token holder unreachable")
	}
	if n.Err() == nil {
		t.Fatal("missing peer address must surface via Err")
	}
}

func TestLocalCloseIsIdempotentAndDrains(t *testing.T) {
	tree := topology.Line(4)
	l, err := NewLocal(core.Builder, dagConfig(tree, 4))
	if err != nil {
		t.Fatal(err)
	}
	h := l.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := h.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close() // second close must be a no-op, not a panic or deadlock
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPCloseIsIdempotent(t *testing.T) {
	tree := topology.Line(2)
	n, err := NewTCPNode(1, core.Builder, dagConfig(tree, 1), DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
}

func TestLocalWithNode(t *testing.T) {
	tree := topology.Line(3)
	l, err := NewLocal(core.Builder, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var snap core.Snapshot
	err = l.WithNode(1, func(n mutex.Node) error {
		snap = n.(*core.Node).Snapshot()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Holding {
		t.Fatalf("holder snapshot = %+v", snap)
	}
	if err := l.WithNode(99, func(mutex.Node) error { return nil }); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestHandleStorage(t *testing.T) {
	tree := topology.Line(2)
	l, err := NewLocal(core.Builder, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if s := l.Session(1).Storage(); s.Scalars != 5 {
		t.Fatalf("storage = %+v, want 5 scalars", s)
	}
}

// strayBuilder builds a node whose Request sends to a node id outside the
// cluster — the regression scenario for env.Send on an unknown node,
// which used to panic the whole process.
type strayNode struct {
	id  mutex.ID
	env mutex.Env
}

func (n *strayNode) ID() mutex.ID { return n.id }
func (n *strayNode) Request() error {
	n.env.Send(99, core.Request{From: n.id, Origin: n.id})
	return nil
}
func (n *strayNode) Release() error                        { return nil }
func (n *strayNode) Deliver(mutex.ID, mutex.Message) error { return nil }
func (n *strayNode) Storage() mutex.Storage                { return mutex.Storage{} }

func strayBuilder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return &strayNode{id: id, env: env}, nil
}

// TestLocalSendToUnknownNodeFailsClusterNotProcess: an unknown
// destination surfaces through Err() and fails the pending Acquire fast,
// instead of panicking.
func TestLocalSendToUnknownNodeFailsClusterNotProcess(t *testing.T) {
	tree := topology.Line(2)
	l, err := NewLocal(strayBuilder, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = l.Session(1).Acquire(ctx)
	if err == nil {
		t.Fatal("acquire must fail when the protocol sends to an unknown node")
	}
	if ctx.Err() != nil {
		t.Fatalf("acquire waited for its deadline instead of failing fast: %v", err)
	}
	if l.Err() == nil {
		t.Fatal("unknown-node send not recorded via Err")
	}
}

// failingDeliver is a node whose Deliver always errors, used to poison a
// live cluster from a peer's handler.
type failingDeliver struct{ id mutex.ID }

func (n *failingDeliver) ID() mutex.ID   { return n.id }
func (n *failingDeliver) Request() error { return nil }
func (n *failingDeliver) Release() error { return nil }
func (n *failingDeliver) Deliver(from mutex.ID, m mutex.Message) error {
	return fmt.Errorf("%w: poisoned node", mutex.ErrUnexpectedMessage)
}
func (n *failingDeliver) Storage() mutex.Storage { return mutex.Storage{} }

// TestLocalAcquireFailsFastOnClusterError: node 2's Acquire sends a
// REQUEST to the holder (node 1), whose Deliver errors; the blocked
// Acquire must fail immediately rather than waiting out its deadline.
func TestLocalAcquireFailsFastOnClusterError(t *testing.T) {
	tree := topology.Line(2)
	mixed := func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
		if id == 1 {
			return &failingDeliver{id: id}, nil
		}
		return core.Builder(id, env, cfg)
	}
	l, err := NewLocal(mixed, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = l.Session(2).Acquire(ctx)
	if err == nil {
		t.Fatal("acquire must fail once the holder's deliver errors")
	}
	if !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("acquire error = %v, want the delivery error", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("acquire took %v; fail-fast path not taken", elapsed)
	}
	if l.Err() == nil {
		t.Fatal("delivery error not recorded via Err")
	}
}

// TestTCPHostMultiInstance runs two independent DAG clusters (instances
// 0 and 1) between the same pair of hosts over one listener each,
// checking the instance demux keeps the token flows separate.
func TestTCPHostMultiInstance(t *testing.T) {
	tree := topology.Line(2)
	hosts := make(map[mutex.ID]*TCPHost, 2)
	addrs := make(map[mutex.ID]string, 2)
	for _, id := range tree.IDs() {
		h, err := NewTCPHost(id, DAGCodec{})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hosts[id] = h
		addrs[id] = h.Addr()
	}
	// Instance 0: token starts at node 1; instance 1: at node 2.
	handles := make(map[uint32]map[mutex.ID]*Session)
	for inst := uint32(0); inst < 2; inst++ {
		handles[inst] = make(map[mutex.ID]*Session)
		cfg := dagConfig(tree, mutex.ID(inst+1))
		for id, h := range hosts {
			n, err := h.StartInstance(inst, core.Builder, cfg)
			if err != nil {
				t.Fatal(err)
			}
			handles[inst][id] = n.Session()
		}
	}
	for _, h := range hosts {
		h.Connect(addrs)
	}

	var wg sync.WaitGroup
	for inst := uint32(0); inst < 2; inst++ {
		var inCS atomic.Int64
		for _, id := range tree.IDs() {
			h := handles[inst][id]
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				for i := 0; i < 10; i++ {
					if _, err := h.Acquire(ctx); err != nil {
						t.Errorf("node %d: %v", h.ID(), err)
						return
					}
					if got := inCS.Add(1); got != 1 {
						t.Errorf("instance mutual exclusion violated: %d in CS", got)
					}
					inCS.Add(-1)
					if err := h.Release(); err != nil {
						t.Errorf("node %d: %v", h.ID(), err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	for id, h := range hosts {
		if err := h.Err(); err != nil {
			t.Fatalf("host %d: %v", id, err)
		}
	}
}

// TestTCPHostBuffersFramesForUnregisteredInstance: traffic that arrives
// before StartInstance is held and delivered in order once the instance
// registers — the startup race of a multi-process deployment.
func TestTCPHostBuffersFramesForUnregisteredInstance(t *testing.T) {
	tree := topology.Line(2)
	cfg := dagConfig(tree, 2) // token starts at node 2
	h1, err := NewTCPHost(1, DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	h2, err := NewTCPHost(2, DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	addrs := map[mutex.ID]string{1: h1.Addr(), 2: h2.Addr()}
	h1.Connect(addrs)
	h2.Connect(addrs)

	n1, err := h1.StartInstance(0, core.Builder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 requests the token; host 2 has no instance yet, so the
	// REQUEST parks in the pending buffer.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- acquireErr(n1.Session(), ctx)
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := h2.StartInstance(0, core.Builder, cfg); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("acquire across late-registered instance: %v", err)
	}
	if err := n1.Session().Release(); err != nil {
		t.Fatal(err)
	}
	if err := h1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPHostRejectsDuplicateInstance(t *testing.T) {
	h, err := NewTCPHost(1, DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	cfg := dagConfig(topology.Line(2), 1)
	if _, err := h.StartInstance(3, core.Builder, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := h.StartInstance(3, core.Builder, cfg); err == nil {
		t.Fatal("duplicate instance accepted")
	}
}

// TestTCPClusterMutualExclusionViaCluster drives the TCPCluster
// convenience wrapper the way tests and examples use it.
func TestTCPClusterMutualExclusionViaCluster(t *testing.T) {
	tree := topology.Star(4)
	c, err := NewTCPCluster(core.Builder, dagConfig(tree, 1), DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var inCS atomic.Int64
	var wg sync.WaitGroup
	for _, id := range tree.IDs() {
		h := c.Session(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 5; i++ {
				if _, err := h.Acquire(ctx); err != nil {
					t.Errorf("node %d: %v", h.ID(), err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("mutual exclusion violated: %d in CS", got)
				}
				inCS.Add(-1)
				if err := h.Release(); err != nil {
					t.Errorf("node %d: %v", h.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Messages() == 0 {
		t.Fatal("no messages recorded")
	}
	if c.Session(99) != nil {
		t.Fatal("handle for unknown member must be nil")
	}
}

// acquireErr adapts Session.Acquire to an error-only result for tests
// that only care about the failure mode.
func acquireErr(s *Session, ctx context.Context) error {
	_, err := s.Acquire(ctx)
	return err
}

// TestTryAcquireOnlyAtIdleHolder drives the Session's non-blocking entry
// point over a live cluster: the idle holder gets the section (with a
// fencing generation) without any protocol traffic, everyone else is
// refused without issuing a request, so their sessions stay immediately
// reusable.
func TestTryAcquireOnlyAtIdleHolder(t *testing.T) {
	tree := topology.Star(3)
	l, err := NewLocal(core.Builder, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A non-holder is refused, without messages and without a pending
	// request wedging the session.
	if _, ok, err := l.Session(2).TryAcquire(); err != nil || ok {
		t.Fatalf("non-holder TryAcquire = (ok=%v, %v), want (false, nil)", ok, err)
	}
	if got := l.Messages(); got != 0 {
		t.Fatalf("TryAcquire sent %d messages, want 0", got)
	}

	g, ok, err := l.Session(1).TryAcquire()
	if err != nil || !ok {
		t.Fatalf("holder TryAcquire = (ok=%v, %v), want (true, nil)", ok, err)
	}
	if g.Generation != 1 {
		t.Fatalf("TryAcquire generation = %d, want 1", g.Generation)
	}
	// Refused while the section is held.
	if _, ok, _ := l.Session(2).TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded at a non-holder while the section is held")
	}
	if err := l.Session(1).Release(); err != nil {
		t.Fatal(err)
	}

	// The refused node's session is unharmed: a blocking Acquire works
	// and continues the generation sequence.
	g2, err := l.Session(2).Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Generation != 2 {
		t.Fatalf("post-TryAcquire Acquire generation = %d, want 2", g2.Generation)
	}
	if err := l.Session(2).Release(); err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPrivilegeGenerationSurvivesTCPCodec: the fencing generation must
// round-trip the framed wire format, not just the in-process path.
func TestPrivilegeGenerationSurvivesTCPCodec(t *testing.T) {
	gens := []uint64{0, 1, 1 << 40}
	for _, gen := range gens {
		b, err := DAGCodec{}.Encode(core.Privilege{Generation: gen})
		if err != nil {
			t.Fatal(err)
		}
		m, err := DAGCodec{}.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := m.(core.Privilege)
		if !ok || p.Generation != gen {
			t.Fatalf("PRIVILEGE round-trip = %#v, want generation %d", m, gen)
		}
	}
}

// TestKillWakesBlockedAcquire: an Acquire already blocked when its own
// node is killed must fail fast with ErrNodeDown instead of hanging
// forever on a grant that regenerates elsewhere.
func TestKillWakesBlockedAcquire(t *testing.T) {
	tree := topology.Star(3)
	l, err := NewLocal(core.Builder, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := l.Session(1).Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Session(3).Acquire(context.Background()) // deliberately uncancellable
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it block behind the holder
	if err := l.Kill(3); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, runtime.ErrNodeDown) {
			t.Fatalf("blocked acquire after Kill = %v, want ErrNodeDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked acquire never woke after its node was killed")
	}
}
