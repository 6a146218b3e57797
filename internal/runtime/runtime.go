// Package runtime is the single live execution engine for protocol
// nodes: one actor loop per node that consumes incoming envelopes,
// serializes the node's handlers under a per-node lock (the paper's
// local-mutual-exclusion execution model), signals grants (with their
// fencing generation), captures the first protocol or delivery error,
// and exposes the blocking Session API applications call.
//
// The runtime is parameterized by a Link — the node's attachment to the
// messaging substrate. The transport package provides two link layers
// over it: in-process mailboxes (transport.Local) and framed TCP
// connections (transport.TCPHost). Protocol code and application code
// are identical over both; only the Link differs.
package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/vclock"
)

// ErrGrantPending marks an Acquire failure that leaves the protocol
// request outstanding (the paper's model has no cancellation): the grant
// may still arrive on Session.Granted and must be drained and released
// before the session is reused. Errors returned before the request was
// issued (e.g. mutex.ErrOutstanding) do not carry it.
var ErrGrantPending = errors.New("request still outstanding, grant pending")

// ErrTryUnsupported reports a TryAcquire on a protocol that cannot answer
// "would this request be granted immediately?" without sending messages
// (it does not implement mutex.TryRequester).
var ErrTryUnsupported = errors.New("protocol does not support TryAcquire")

// ErrNodeDown marks a node-down condition: a session operation on a node
// the fault layer has crashed returns it, and membership errors wrap it.
// Unlike an ErrorSink failure it is per-node, not cluster-fatal — the
// surviving nodes' sessions keep working through the protocol's recovery.
var ErrNodeDown = errors.New("node down")

// Proxy-hold lifecycle errors, the runtime-level counterparts of the
// lock service's sentinels. The client wire protocol maps both layers'
// sentinels onto the same wire codes, so a remote client sees one
// canonical pair regardless of which layer it dialed.
var (
	// ErrNotHeld reports a Release of a proxy hold the caller does not
	// own (never acquired, already released, or a stale fence).
	ErrNotHeld = errors.New("runtime: not held")
	// ErrLeaseExpired reports a Release that arrived after the proxy
	// hold's lease ran out and the proxy already force-released it.
	ErrLeaseExpired = errors.New("runtime: lease expired")
)

// Monitor observes every inbound envelope before protocol delivery — the
// failure detector's hook. Inbound reports whether the envelope was the
// monitor's own traffic (a heartbeat) and is therefore consumed instead
// of delivered to the protocol. Implementations must be safe for
// concurrent use and must not block.
type Monitor interface {
	Inbound(from mutex.ID, m mutex.Message) (consumed bool)
}

// MemberEvent is one membership observation delivered to the node's
// Membership channel: a peer went down, or a down peer was heard again.
type MemberEvent struct {
	Peer mutex.ID
	Down bool
	At   time.Time
}

// Grant is one critical-section entry as the application sees it: the
// fencing generation the protocol attached to the grant and the local
// wall-clock time the section was entered.
type Grant struct {
	// Generation is the grant's fencing token: strictly increasing across
	// successive grants of one critical section for protocols that carry a
	// fencing counter (the DAG algorithm's extended PRIVILEGE), 0 for
	// protocols that provide none. Pass it to downstream stores so writes
	// from a superseded holder can be rejected.
	Generation uint64
	// At is the local wall-clock time the grant was observed, the anchor
	// for lease deadlines layered above.
	At time.Time
	// Expires is the lease deadline attached to the grant, when one
	// exists: remote client sessions (dagmutex.Dial) hold through a
	// member-side proxy that bounds every hold by a lease. Zero for
	// direct member grants, which are lease-free at this layer (the lock
	// service layers its own leases above).
	Expires time.Time
	// Hops is the number of protocol messages the granted request
	// travelled before the token was dispatched, when the protocol
	// reports it (the DAG algorithm's hop-stamped REQUEST/PRIVILEGE);
	// 0 for grants that needed no network traffic and for protocols
	// without hop accounting. The lock service aggregates it per shard
	// as the adaptive-topology feedback signal.
	Hops int
}

// Envelope is one in-flight protocol message with its transport-level
// sender.
type Envelope struct {
	From mutex.ID
	Msg  mutex.Message
}

// Link is one node's attachment to the messaging substrate. The runtime
// sends through it from protocol handlers and consumes it from the actor
// loop. Send must not block on protocol progress (a handler may send to a
// peer whose handler is concurrently sending back); Recv blocks until an
// envelope arrives or the link closes.
type Link interface {
	// Send transmits m to the node identified by to. Delivery must be
	// reliable and FIFO per (sender, receiver) pair, per the paper's
	// system model. A synchronous failure (unknown peer, encoding error)
	// is returned; asynchronous failures surface through the ErrorSink.
	Send(to mutex.ID, m mutex.Message) error
	// Recv blocks for the next incoming envelope. ok is false once the
	// link is closed and drained.
	Recv() (e Envelope, ok bool)
	// Close stops the link. Envelopes already received are still drained
	// by Recv before it reports ok=false.
	Close()
}

// Flusher is an optional Link extension for transports that batch
// outgoing messages per handler turn: the runtime buffers nothing
// itself, but after every section that may have called into protocol
// code (a delivery, a request, a release) it tells the link the turn is
// over, so all messages the handler sent can leave together — one
// writev instead of one wakeup per message.
//
// Flush may write from the calling goroutine and may block on the
// network; the runtime only calls it from application goroutines
// (Session operations, With). FlushAsync must not block: it hands the
// batch to the transport's own writer, and is what the runtime calls
// from delivery context, where blocking on a send could deadlock two
// nodes delivering to each other.
type Flusher interface {
	Flush()
	FlushAsync()
}

// ErrorSink records the first error a cluster observes and signals
// waiters. One sink is shared by every node of a cluster so that any
// blocked Acquire fails fast on the first protocol, delivery or transport
// error anywhere in the cluster, instead of hanging until its context
// expires while the error waits in an end-of-run poll.
type ErrorSink struct {
	fired chan struct{}
	err   atomic.Pointer[errBox]
}

type errBox struct{ err error }

// NewErrorSink returns an empty sink.
func NewErrorSink() *ErrorSink {
	return &ErrorSink{fired: make(chan struct{})}
}

// Fail records err if it is the sink's first; later calls are no-ops.
func (s *ErrorSink) Fail(err error) {
	if err == nil {
		return
	}
	if s.err.CompareAndSwap(nil, &errBox{err: err}) {
		close(s.fired)
	}
}

// Err returns the recorded error, or nil.
func (s *ErrorSink) Err() error {
	if b := s.err.Load(); b != nil {
		return b.err
	}
	return nil
}

// Fired returns a channel closed when the first error is recorded.
func (s *ErrorSink) Fired() <-chan struct{} { return s.fired }

// Node is one live protocol instance: the protocol state machine, its
// link, and the actor goroutine delivering envelopes to it.
type Node struct {
	id   mutex.ID
	link Link
	sink *ErrorSink
	clk  vclock.Clock // never nil; the clock grants and proxy leases are stamped on

	mu   sync.Mutex // serializes Request/Release/Deliver on the state machine
	node mutex.Node

	flush Flusher // non-nil when the link batches sends per handler turn

	granted chan Grant // capacity 1: at most one outstanding request

	monitor  atomic.Pointer[monitorBox]
	selfDown atomic.Bool
	downCh   chan struct{} // closed by MarkSelfDown; wakes blocked Acquires
	downOnce sync.Once
	events   chan MemberEvent // best-effort membership observations

	closeOnce sync.Once
	wg        sync.WaitGroup
}

type monitorBox struct{ m Monitor }

// StartOption configures a Node at Start.
type StartOption func(*Node)

// WithClock installs the clock the node stamps grants and membership
// events on and arms proxy-lease timers against. Nil (and the default)
// is the real clock; the simulation harness installs a vclock.Virtual.
func WithClock(c vclock.Clock) StartOption {
	return func(n *Node) { n.clk = vclock.Or(c) }
}

// Start builds the protocol node with b over link and starts its actor
// loop. sink collects the cluster's first error; passing the same sink to
// every node of a cluster gives cluster-wide fail-fast Acquire. A nil
// sink gets a private one.
func Start(id mutex.ID, b mutex.Builder, cfg mutex.Config, link Link, sink *ErrorSink, opts ...StartOption) (*Node, error) {
	if sink == nil {
		sink = NewErrorSink()
	}
	n := &Node{
		id:      id,
		link:    link,
		sink:    sink,
		clk:     vclock.System(),
		granted: make(chan Grant, 1),
		downCh:  make(chan struct{}),
		events:  make(chan MemberEvent, 64),
	}
	for _, opt := range opts {
		opt(n)
	}
	if fl, ok := link.(Flusher); ok {
		n.flush = fl
	}
	pn, err := b(id, env{n: n}, cfg)
	if err != nil {
		link.Close()
		return nil, fmt.Errorf("build node %d: %w", id, err)
	}
	n.node = pn
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.consume()
	}()
	return n, nil
}

// env is the mutex.Env the runtime hands its protocol instance.
type env struct{ n *Node }

// Send forwards to the link; a synchronous send failure is captured
// through the same error path as a delivery error.
func (e env) Send(to mutex.ID, m mutex.Message) {
	if err := e.n.link.Send(to, m); err != nil {
		e.n.sink.Fail(fmt.Errorf("send %s %d->%d: %w", m.Kind(), e.n.id, to, err))
	}
}

// Granted signals the waiting Acquire, if any, carrying the protocol's
// fencing generation and the local grant time.
func (e env) Granted(gen uint64) {
	e.deposit(Grant{Generation: gen, At: e.n.clk.Now()})
}

// GrantedHops implements mutex.HopGranter: Granted plus the granted
// request's path length, for protocols that track it.
func (e env) GrantedHops(gen uint64, hops int) {
	e.deposit(Grant{Generation: gen, At: e.n.clk.Now(), Hops: hops})
}

func (e env) deposit(g Grant) {
	select {
	case e.n.granted <- g:
	default:
		// A grant with no waiter indicates a protocol double-grant; it
		// will surface as ErrOutstanding on the next request.
	}
}

// consume is the actor loop: deliver envelopes one at a time under the
// node lock, capturing the first failure. The registered monitor (the
// failure detector) sees every envelope first, as liveness evidence, and
// consumes its own (heartbeats never reach the protocol).
func (n *Node) consume() {
	for {
		e, ok := n.link.Recv()
		if !ok {
			return
		}
		n.DeliverEnvelope(e)
	}
}

// DeliverEnvelope injects one inbound envelope exactly as the actor loop
// would: monitor first, then the protocol handler under the node lock,
// with the first failure captured in the sink. It is the push-mode
// delivery path — a transport whose reader goroutine already demuxes
// frames per instance (the TCP host) calls it directly from that reader,
// skipping the per-instance inbox hop and its goroutine wakeup; the
// link's Recv side then simply stays empty. Safe for concurrent use; the
// node lock serializes handlers regardless of how many readers deliver.
func (n *Node) DeliverEnvelope(e Envelope) {
	if box := n.monitor.Load(); box != nil && box.m.Inbound(e.From, e.Msg) {
		return
	}
	n.mu.Lock()
	err := n.node.Deliver(e.From, e.Msg)
	n.mu.Unlock()
	n.flushAsync() // delivery context: never block on a send
	if err != nil {
		n.sink.Fail(fmt.Errorf("deliver %s %d->%d: %w", e.Msg.Kind(), e.From, n.id, err))
	}
}

// SetMonitor installs m as the inbound observer (the failure detector's
// hook). Pass nil to remove it.
func (n *Node) SetMonitor(m Monitor) {
	if m == nil {
		n.monitor.Store(nil)
		return
	}
	n.monitor.Store(&monitorBox{m: m})
}

// flushInline ends a handler turn entered from an application
// goroutine: batched sends leave now, written inline from this
// goroutine when the transport's writer is idle.
func (n *Node) flushInline() {
	if n.flush != nil {
		n.flush.Flush()
	}
}

// flushAsync ends a handler turn whose goroutine must not block on the
// network (a transport reader, a detector verdict): batched sends are
// handed to the transport's own writer.
func (n *Node) flushAsync() {
	if n.flush != nil {
		n.flush.FlushAsync()
	}
}

// Send transmits m to peer through the node's link — the out-of-band
// path the failure detector uses for heartbeats, which may fire from
// transport goroutines and so must never block on the write.
func (n *Node) Send(to mutex.ID, m mutex.Message) error {
	err := n.link.Send(to, m)
	n.flushAsync()
	return err
}

// PeerDown reports peer as crashed to the hosted protocol (under its
// handler lock) and publishes a membership event. Protocols that
// implement mutex.MembershipHandler repair themselves; for the rest a
// dead peer is unrecoverable and the error (wrapping ErrNodeDown) is
// returned for the caller to escalate.
func (n *Node) PeerDown(peer mutex.ID) error {
	n.publish(MemberEvent{Peer: peer, Down: true, At: n.clk.Now()})
	return n.With(func(pn mutex.Node) error {
		mh, ok := pn.(mutex.MembershipHandler)
		if !ok {
			return fmt.Errorf("peer %d of node %d: %w and the protocol cannot recover", peer, n.id, ErrNodeDown)
		}
		return mh.PeerDown(peer)
	})
}

// PeerUp reports a previously-down peer as alive again.
func (n *Node) PeerUp(peer mutex.ID) error {
	n.publish(MemberEvent{Peer: peer, Down: false, At: n.clk.Now()})
	return n.With(func(pn mutex.Node) error {
		if mh, ok := pn.(mutex.MembershipHandler); ok {
			return mh.PeerUp(peer)
		}
		return nil
	})
}

// publish delivers a membership event without ever blocking: the channel
// is a bounded observation window, and a reader that falls behind loses
// the oldest observations first.
func (n *Node) publish(e MemberEvent) {
	for {
		select {
		case n.events <- e:
			return
		default:
		}
		select {
		case <-n.events: // drop the oldest
		default:
		}
	}
}

// Membership exposes the node's membership observations (peer down/up).
// Best-effort: bounded, oldest dropped on overflow.
func (n *Node) Membership() <-chan MemberEvent { return n.events }

// MarkSelfDown marks this node itself as crashed by the fault layer:
// subsequent session operations fail with ErrNodeDown instead of
// touching the protocol, and Acquires already blocked are woken with
// the same error (their grant may never come — the token regenerates
// among the survivors).
func (n *Node) MarkSelfDown() {
	n.selfDown.Store(true)
	n.downOnce.Do(func() { close(n.downCh) })
}

// ID returns the hosted node's identifier.
func (n *Node) ID() mutex.ID { return n.id }

// Clock returns the clock the node was started with (the real clock by
// default) — the time source every layer above the node should share.
func (n *Node) Clock() vclock.Clock { return n.clk }

// Sink returns the node's error sink.
func (n *Node) Sink() *ErrorSink { return n.sink }

// Err returns the first error the node's cluster observed, if any.
func (n *Node) Err() error { return n.sink.Err() }

// With runs fn on the protocol state machine while holding its handler
// lock, for management operations such as the DAG algorithm's StartInit.
// fn must not block on protocol progress.
func (n *Node) With(fn func(mutex.Node) error) error {
	n.mu.Lock()
	err := fn(n.node)
	n.mu.Unlock()
	// Async: With is also the membership-verdict path (PeerDown from a
	// detector callback), which can run on a transport reader goroutine.
	n.flushAsync()
	return err
}

// Session returns the blocking application API over this node.
func (n *Node) Session() *Session { return &Session{n: n} }

// Close shuts the link down and waits for the actor loop to exit.
// Envelopes the link already received are still delivered first.
func (n *Node) Close() {
	n.closeOnce.Do(func() { n.link.Close() })
	n.wg.Wait()
}

// Session is the blocking application API over one live node: Acquire
// waits for the critical section and returns the grant's fencing
// generation, TryAcquire takes it only if no messages are needed, Release
// leaves it.
type Session struct {
	n *Node
}

// ID returns the underlying node's identifier.
func (s *Session) ID() mutex.ID { return s.n.id }

// Acquire requests the critical section and blocks until it is granted,
// the cluster fails, or ctx is done. On success it returns the Grant —
// fencing generation plus local grant time. On ctx expiry the request
// stays outstanding (the paper's model has no request cancellation), so
// the session should not be reused after a timed-out Acquire until the
// grant is drained via Granted and released. A cluster error observed
// anywhere (protocol violation, unreachable peer, codec failure) fails
// the Acquire immediately rather than leaving it to hang until its
// deadline.
func (s *Session) Acquire(ctx context.Context) (Grant, error) {
	n := s.n
	if n.selfDown.Load() {
		return Grant{}, fmt.Errorf("acquire node %d: %w", n.id, ErrNodeDown)
	}
	n.mu.Lock()
	err := n.node.Request()
	n.mu.Unlock()
	n.flushInline()
	if err != nil {
		return Grant{}, err
	}
	return s.Await(ctx)
}

// AcquireAsync issues the critical-section request without waiting for
// the grant — the request half of Acquire. The grant arrives later on
// Granted (collect it with Await, or from an event-driven observer). It
// is what the simulation harness calls: on a virtual-time cluster the
// grant is produced by a future clock event, so a blocking Acquire from
// the driving goroutine would deadlock the clock it is advancing.
func (s *Session) AcquireAsync() error {
	n := s.n
	if n.selfDown.Load() {
		return fmt.Errorf("acquire node %d: %w", n.id, ErrNodeDown)
	}
	n.mu.Lock()
	err := n.node.Request()
	n.mu.Unlock()
	n.flushInline()
	return err
}

// acquireSpins bounds the spin-then-park fast path: how many times an
// Await polls the grant channel (yielding the processor between polls)
// before parking in the blocking select. Zero in practice: the grant is
// produced by the delivery goroutine, so on a single-processor machine
// every yield spent polling is a slice stolen from the very goroutine
// that would satisfy the poll, and measured throughput drops sharply
// with any spinning at all. The non-blocking probe ahead of the select
// still catches an already-deposited grant for free.
const acquireSpins = 0

// Await blocks until the grant for an already-issued request arrives —
// the wait half of Acquire, exposed for pipelined handoff: a releaser
// that calls ReleaseRequest has already re-issued the slot's next
// request, so the next waiter only awaits. Calling Await with no request
// outstanding blocks until failure or ctx expiry. The failure semantics
// match Acquire exactly.
func (s *Session) Await(ctx context.Context) (Grant, error) {
	n := s.n
	// Prefer a grant that is already in hand over a concurrent failure:
	// the critical section was genuinely entered.
	select {
	case g := <-n.granted:
		return g, nil
	default:
	}
	for i := 0; i < acquireSpins; i++ {
		goruntime.Gosched()
		select {
		case g := <-n.granted:
			return g, nil
		default:
		}
	}
	select {
	case g := <-n.granted:
		return g, nil
	case <-n.downCh:
		return Grant{}, fmt.Errorf("acquire node %d: %w: %w", n.id, ErrGrantPending, ErrNodeDown)
	case <-n.sink.Fired():
		return Grant{}, fmt.Errorf("acquire node %d: %w: cluster failed: %w", n.id, ErrGrantPending, n.sink.Err())
	case <-ctx.Done():
		return Grant{}, fmt.Errorf("acquire node %d: %w: %w", n.id, ErrGrantPending, ctx.Err())
	}
}

// TryAcquire enters the critical section only if the protocol can grant
// it without any network traffic — for the DAG algorithm, when this node
// is sitting on an idle token. It reports false (with no error) when the
// section would have to be waited for; no request is issued in that case,
// so the session stays immediately reusable. Protocols that cannot answer
// locally return ErrTryUnsupported.
func (s *Session) TryAcquire() (Grant, bool, error) {
	n := s.n
	if n.selfDown.Load() {
		return Grant{}, false, fmt.Errorf("try-acquire node %d: %w", n.id, ErrNodeDown)
	}
	n.mu.Lock()
	tr, ok := n.node.(mutex.TryRequester)
	if !ok {
		n.mu.Unlock()
		return Grant{}, false, fmt.Errorf("try-acquire node %d: %w", n.id, ErrTryUnsupported)
	}
	granted, err := tr.TryRequest()
	n.mu.Unlock()
	n.flushInline()
	if err != nil || !granted {
		return Grant{}, false, err
	}
	// TryRequest grants synchronously, so the Grant is already deposited.
	return <-n.granted, true, nil
}

// Failed returns a channel closed when the node's cluster records its
// first error, for callers that queue ahead of Acquire (e.g. the lock
// service's slot semaphore) and must not keep waiting on a dead cluster.
func (s *Session) Failed() <-chan struct{} { return s.n.sink.Fired() }

// Err returns the first error the node's cluster observed, if any.
func (s *Session) Err() error { return s.n.sink.Err() }

// Granted exposes the grant signal for recovery after a failed Acquire:
// the request stays outstanding (the paper's model has no cancellation),
// so the grant still arrives eventually and a caller that owns the
// session can drain it and Release. The channel never closes and receives
// at most one value per outstanding request.
func (s *Session) Granted() <-chan Grant { return s.n.granted }

// Release leaves the critical section.
func (s *Session) Release() error {
	if s.n.selfDown.Load() {
		return fmt.Errorf("release node %d: %w", s.n.id, ErrNodeDown)
	}
	s.n.mu.Lock()
	err := s.n.node.Release()
	s.n.mu.Unlock()
	s.n.flushInline()
	return err
}

// ReleaseRequest leaves the critical section and immediately re-requests
// it, both under one handler-lock hold — the pipelined token handoff. The
// outgoing PRIVILEGE (if a successor is waiting) and the re-issued
// REQUEST leave back to back, so the TCP substrate's batched writer
// coalesces them into a single writev to the successor, and the caller's
// next turn is already queued before the released token's ack could ever
// round-trip. The grant arrives later on Granted; wait for it with Await.
// A Release error is returned before the request is issued; a Request
// error (e.g. mutex.ErrOutstanding) leaves the release done.
func (s *Session) ReleaseRequest() error {
	n := s.n
	if n.selfDown.Load() {
		return fmt.Errorf("release node %d: %w", n.id, ErrNodeDown)
	}
	n.mu.Lock()
	var err error
	if rr, ok := n.node.(mutex.ReleaseRequester); ok {
		// Fused protocol path: the re-request may ride the outgoing
		// token message itself (the DAG algorithm's Requesting flag).
		err = rr.ReleaseRequest()
	} else {
		err = n.node.Release()
		if err == nil {
			err = n.node.Request()
		}
	}
	n.mu.Unlock()
	n.flushInline()
	return err
}

// Regrant hands the critical section to the next local claimant without
// any protocol traffic — the cohort handoff. The protocol node, as far
// as its peers can observe, never leaves the critical section; only the
// fencing generation advances. The fresh Grant is deposited on Granted
// (exactly as a pipelined re-request's grant would be), so the claimant
// collects it with Await, and the sweeper machinery that adopts
// orphaned pipelined grants covers an unclaimed regrant unchanged.
// It reports false (with no error) when the protocol cannot regrant
// right now — mid-recovery, or a protocol without the capability — and
// the caller must release normally. Callers are responsible for
// bounding consecutive regrants: each one bypasses remote requesters
// already queued in the protocol.
func (s *Session) Regrant() (bool, error) {
	n := s.n
	if n.selfDown.Load() {
		return false, fmt.Errorf("regrant node %d: %w", n.id, ErrNodeDown)
	}
	n.mu.Lock()
	rg, ok := n.node.(mutex.Regranter)
	if !ok {
		n.mu.Unlock()
		return false, nil
	}
	granted, err := rg.Regrant()
	n.mu.Unlock()
	return granted, err
}

// PlanReorient asks the protocol to reshape its routing structure
// toward hot — the planned counterpart of crash recovery, used by the
// lock service's Rebalance topology policy to re-root a shard's DAG at
// its observed hottest requester. It reports false (with no error) when
// the reshape is currently unavailable: this node does not possess the
// token (only the holder may reshape, which is what keeps the fencing
// generation untouched — no token is ever regenerated), a recovery or
// earlier reshape is still in flight, the cluster lacks a quorum, or
// the protocol has no reshaping capability at all. The reshape runs
// asynchronously; requests in flight when it starts are re-queued by
// the rebuilt orientation, so no grant is lost.
func (s *Session) PlanReorient(hot mutex.ID) (bool, error) {
	n := s.n
	if n.selfDown.Load() {
		return false, fmt.Errorf("reorient node %d: %w", n.id, ErrNodeDown)
	}
	n.mu.Lock()
	ro, ok := n.node.(mutex.Reorienter)
	if !ok {
		n.mu.Unlock()
		return false, nil
	}
	planned, err := ro.PlanReorient(hot)
	n.mu.Unlock()
	// Unlike Regrant, a planned reshape sends traffic (the probe round),
	// so the handler turn's batched sends must leave now.
	n.flushInline()
	return planned, err
}

// Membership exposes the node's membership observations (peer down/up
// verdicts from the failure layer), for applications that re-acquire or
// shed load on churn. Best-effort: bounded, oldest dropped on overflow.
func (s *Session) Membership() <-chan MemberEvent { return s.n.Membership() }

// Storage snapshots the node's storage footprint.
func (s *Session) Storage() mutex.Storage {
	s.n.mu.Lock()
	defer s.n.mu.Unlock()
	return s.n.node.Storage()
}
