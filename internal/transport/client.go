package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dagmutex/internal/runtime"
)

// This file is the member side of the CLIENT wire protocol: the framing
// that lets a process which is NOT a DAG vertex attach to a member over
// TCP and acquire/release through it. The client side lives in
// internal/client; the two share the frame layout defined here.
//
// # Client wire frames
//
// A client connection opens with an 8-byte handshake — the 4-byte magic
// "DAGC" followed by a big-endian uint32 protocol version (currently 1).
// The magic doubles as the demultiplexer: member-to-member connections
// start with a frame-size header, and sizes are bounded by maxFrame
// (1 MiB), so the magic (0x44414743) can never be a valid size. One
// listener therefore serves both populations (TCPHost), and a
// standalone ClientGateway serves only clients.
//
// After the handshake, both directions speak length-prefixed frames:
//
//	[4B size] [1B op] [8B request id] [payload]     size = 9 + len(payload)
//
// Client → member ops:
//
//	opAcquire    payload = resource name ("" = the member's single mutex)
//	opTry        payload = resource name
//	opRelease    payload = [8B fence] ++ resource name (fence 0 = by name)
//	opCancel     request id names the acquire to cancel; empty payload
//
// Member → client ops (the request id echoes the request):
//
//	respGrant    payload = [8B fence][8B lease expiry, unix nanos, 0 = none]
//	respTry      payload = [1B granted][8B fence][8B expiry]
//	respOK       empty (release succeeded)
//	respErr      payload = [1B code] ++ message
//
// Error codes carry the sentinel across the wire so errors.Is works on
// the client side exactly as it does in process: not-held, lease-expired,
// try-unsupported, canceled, busy (per-client queue full), node-down;
// code 0 is a generic error delivered by message only.

// Client protocol constants, shared with internal/client.
const (
	// ClientMagic opens every client connection. As a big-endian uint32 it
	// exceeds maxFrame, so it is unambiguous against member frame sizes.
	ClientMagic = "DAGC"
	// ClientVersion is the protocol version sent after the magic.
	ClientVersion uint32 = 1
	// MaxClientFrame bounds client frames; resource names plus headers fit
	// comfortably.
	MaxClientFrame = 1 << 16
	// MaxClientInflight is the default per-connection queue bound (the
	// ClientQueue zero value): a client may have this many acquires
	// outstanding before the member sheds new ones with ErrClientBusy.
	// Cancels and releases are exempt — a client can always trim its own
	// queue and always give back what it holds (shedding a release would
	// increase contention, the opposite of backpressure's goal).
	MaxClientInflight = 64
)

// ClientQueue configures admission control for dialed clients: how much
// work one listener accepts before shedding with ErrClientBusy. The zero
// value keeps the historical behavior — MaxClientInflight requests per
// connection, no rate limit.
type ClientQueue struct {
	// Depth bounds in-flight acquires/tries per connection. 0 means
	// MaxClientInflight; negative means 1 (fully serialized clients).
	Depth int
	// Rate, when positive, caps admitted acquire/try requests per second
	// across ALL connections of the listener — a token bucket refilled
	// continuously. Requests beyond the rate are shed with ErrClientBusy
	// instead of queueing, which keeps latency for admitted requests
	// bounded when thousands of clients offer load at once. 0 or
	// negative disables rate limiting.
	Rate float64
	// Burst is the token bucket size — how far above the steady rate a
	// momentary spike may go. 0 or negative derives it from Rate
	// (one second's worth, at least 1). Ignored when Rate is disabled.
	Burst int
}

// ClientStats is a snapshot of one listener's client-tier counters. The
// snapshot is one consistent cut, not a field-by-field racing read: in
// every snapshot Inflight == Admitted - Answered.
type ClientStats struct {
	Conns     int64 // client connections currently open
	Inflight  int64 // acquires/tries admitted and not yet answered
	Admitted  int64 // total requests admitted since the listener started
	Answered  int64 // admitted requests that have completed (any outcome)
	ShedDepth int64 // requests shed because the per-connection queue was full
	ShedRate  int64 // requests shed by the admission rate limit
}

// Shed returns the total requests shed, on either trigger.
func (s ClientStats) Shed() int64 { return s.ShedDepth + s.ShedRate }

// admission is the shared gate in front of every client connection of
// one listener: the per-connection depth (enforced by each connection's
// semaphore, sized from here) plus a listener-wide token bucket and the
// counters behind ClientStats.
type admission struct {
	depth int
	rate  float64
	burst float64

	// One mutex guards the token bucket and every counter, so the
	// accounting for one request is a single transition and stats() is
	// a consistent cut. Rate-limited admissions already paid this lock
	// for the bucket; unlimited ones trade their two atomic RMWs for
	// one uncontended-in-practice lock hold.
	mu        sync.Mutex
	tokens    float64
	last      time.Time
	conns     int64
	inflight  int64
	admitted  int64
	answered  int64
	shedDepth int64
	shedRate  int64
}

func newAdmission(q ClientQueue) *admission {
	a := &admission{depth: q.Depth, rate: q.Rate, burst: float64(q.Burst)}
	switch {
	case a.depth == 0:
		a.depth = MaxClientInflight
	case a.depth < 0:
		a.depth = 1
	}
	if a.rate <= 0 {
		a.rate = 0
	} else if a.burst <= 0 {
		a.burst = a.rate
		if a.burst < 1 {
			a.burst = 1
		}
	}
	a.tokens = a.burst
	return a
}

// admitOne takes one token from the bucket (refilled lazily from the
// elapsed wall clock) and, when admitted, records the admission — one
// lock hold covers both, so a request is either fully admitted or fully
// shed in every concurrent stats() snapshot. A rate reject burns no
// token.
func (a *admission) admitOne(now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rate > 0 {
		if !a.last.IsZero() {
			if elapsed := now.Sub(a.last).Seconds(); elapsed > 0 {
				a.tokens += elapsed * a.rate
				if a.tokens > a.burst {
					a.tokens = a.burst
				}
			}
		}
		a.last = now
		if a.tokens < 1 {
			a.shedRate++
			return false
		}
		a.tokens--
	}
	a.admitted++
	a.inflight++
	return true
}

// finish retires an admitted request: inflight and answered move in the
// same transition, keeping Inflight == Admitted - Answered invariant.
func (a *admission) finish() {
	a.mu.Lock()
	a.inflight--
	a.answered++
	a.mu.Unlock()
}

func (a *admission) shedFull() {
	a.mu.Lock()
	a.shedDepth++
	a.mu.Unlock()
}

func (a *admission) connDelta(d int64) {
	a.mu.Lock()
	a.conns += d
	a.mu.Unlock()
}

func (a *admission) stats() ClientStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ClientStats{
		Conns:     a.conns,
		Inflight:  a.inflight,
		Admitted:  a.admitted,
		Answered:  a.answered,
		ShedDepth: a.shedDepth,
		ShedRate:  a.shedRate,
	}
}

// Client frame ops.
const (
	OpAcquire byte = 1
	OpTry     byte = 2
	OpRelease byte = 3
	OpCancel  byte = 4

	RespGrant byte = 16
	RespTry   byte = 17
	RespOK    byte = 18
	RespErr   byte = 19
)

// Wire error codes for respErr frames.
const (
	CodeGeneric        byte = 0
	CodeNotHeld        byte = 1
	CodeLeaseExpired   byte = 2
	CodeTryUnsupported byte = 3
	CodeCanceled       byte = 4
	CodeBusy           byte = 5
	CodeNodeDown       byte = 6
)

// ErrClientBusy reports a request shed because the client already has
// MaxClientInflight requests queued on the member — the backpressure
// signal. The member stays healthy; the client should drain or retry.
var ErrClientBusy = errors.New("transport: client request queue full")

// ClientBackend is what a member offers its dialed clients: blocking
// acquire/release of named resources, fences and lease deadlines
// included. Two implementations exist — runtime.Proxy serves a plain
// cluster member's single mutex (resource ""), and the lock service's
// adapter serves its whole keyed resource space. Implementations must be
// safe for concurrent use; Acquire must honor ctx.
type ClientBackend interface {
	Acquire(ctx context.Context, resource string) (fence uint64, expires time.Time, err error)
	TryAcquire(resource string) (fence uint64, expires time.Time, ok bool, err error)
	Release(resource string, fence uint64) error
}

// CodedError attaches a wire error code to err, for backends whose
// sentinels the transport layer cannot know (the lock service's). The
// demux unwraps it when encoding respErr frames; errorCode handles the
// runtime-level sentinels directly.
type CodedError struct {
	Code byte
	Err  error
}

func (e *CodedError) Error() string { return e.Err.Error() }
func (e *CodedError) Unwrap() error { return e.Err }

// errorCode picks the wire code for err: an explicit CodedError wins,
// then the runtime and context sentinels the transport layer knows.
func errorCode(err error) byte {
	if err == ErrClientBusy {
		// The admission shed path runs hot by design; the exact sentinel
		// needs no unwrapping (and no errors.As allocation).
		return CodeBusy
	}
	var ce *CodedError
	switch {
	case errors.As(err, &ce):
		return ce.Code
	case errors.Is(err, runtime.ErrNotHeld):
		return CodeNotHeld
	case errors.Is(err, runtime.ErrLeaseExpired):
		return CodeLeaseExpired
	case errors.Is(err, runtime.ErrTryUnsupported):
		return CodeTryUnsupported
	case errors.Is(err, runtime.ErrNodeDown):
		return CodeNodeDown
	case errors.Is(err, ErrClientBusy):
		return CodeBusy
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	default:
		return CodeGeneric
	}
}

// AppendClientFrame appends one client-protocol frame to buf and returns
// the extended slice. Both ends of the protocol use it, so the layout is
// defined exactly once.
func AppendClientFrame(buf []byte, op byte, reqID uint64, payload []byte) []byte {
	var hdr [13]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(9+len(payload)))
	hdr[4] = op
	binary.BigEndian.PutUint64(hdr[5:13], reqID)
	return append(append(buf, hdr[:]...), payload...)
}

// ReadClientFrame reads one client-protocol frame from r.
func ReadClientFrame(r io.Reader) (op byte, reqID uint64, payload []byte, err error) {
	var body []byte
	return readClientFrameInto(r, &body)
}

// readClientFrameInto reads one client-protocol frame into *body,
// growing it as needed and reusing it across calls — the member-side
// read path's allocation-free variant. The returned payload aliases
// *body and is only valid until the next call.
func readClientFrameInto(r io.Reader, body *[]byte) (op byte, reqID uint64, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size < 9 || size > MaxClientFrame {
		return 0, 0, nil, fmt.Errorf("transport: bad client frame size %d", size)
	}
	if int(size) > cap(*body) {
		*body = make([]byte, size)
	}
	b := (*body)[:size]
	*body = b
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, 0, nil, err
	}
	return b[0], binary.BigEndian.Uint64(b[1:9]), b[9:], nil
}

// clientConn is one dialed client's server-side state: a batched
// response writer over the shared connection, the in-flight request
// table (for cancels), the holds table (for disconnect cleanup), the
// inflight semaphore (per-connection backpressure) and the listener's
// shared admission gate.
type clientConn struct {
	conn net.Conn
	out  *peerConn // pooled-frame response queue + its drain goroutine

	backend ClientBackend
	sem     chan struct{}
	adm     *admission

	mu     sync.Mutex
	reqs   map[uint64]*clientReq
	holds  map[string]uint64 // resource -> fence, holds this connection owns
	closed bool
}

// clientReq is one in-flight acquire.
type clientReq struct {
	cancel   context.CancelFunc
	canceled bool
}

// respond writes one frame back to the client through the connection's
// batched writer: the frame is encoded into a pooled buffer and either
// written inline (idle connection — the common case) or queued for the
// drain goroutine, which gathers responses piled up behind a busy write
// into one writev. The steady-state response path allocates nothing and
// concurrent grants to one client cost one syscall per batch, not per
// frame. Write failures just end the connection (the reader will
// notice); they are never cluster-fatal.
func (cc *clientConn) respond(op byte, reqID uint64, payload []byte) {
	f := framePool.Get().(*frame)
	f.b = AppendClientFrame(f.b[:0], op, reqID, payload)
	cc.out.send(f)
}

// respondErr builds the respErr frame directly in the pooled buffer —
// code byte plus message appended after the header, size patched — so
// the shed path (the whole point of admission control is that it runs
// hot) allocates nothing either.
func (cc *clientConn) respondErr(reqID uint64, err error) {
	f := framePool.Get().(*frame)
	b := AppendClientFrame(f.b[:0], RespErr, reqID, nil)
	b = append(b, errorCode(err))
	b = append(b, err.Error()...)
	binary.BigEndian.PutUint32(b[0:4], uint32(len(b)-4))
	f.b = b
	cc.out.send(f)
}

// ServeClientConn speaks the member side of the client protocol on conn,
// with the handshake already consumed, until the client hangs up or stop
// closes. On exit every in-flight acquire is canceled and every hold the
// connection still owns is released — a vanished client never parks a
// token. Admission uses the defaults (ClientQueue zero value); listeners
// that share a gate across connections (TCPHost, ClientGateway) call the
// internal variant with their own admission.
func ServeClientConn(conn net.Conn, backend ClientBackend, stop <-chan struct{}) {
	serveClientConn(bufio.NewReader(conn), conn, backend, newAdmission(ClientQueue{}), stop)
}

// clientBodyPool recycles the per-connection frame read scratch, so a
// churn of short-lived client connections does not allocate a buffer
// each.
var clientBodyPool = sync.Pool{New: func() any { b := make([]byte, 128); return &b }}

// serveClientConn is ServeClientConn over an explicit reader, so a
// caller that already buffered the connection (the TCP host's dispatch)
// keeps its buffer. Frames are read into a pooled per-connection scratch
// buffer; only the resource-name string conversions allocate.
func serveClientConn(r io.Reader, conn net.Conn, backend ClientBackend, adm *admission, stop <-chan struct{}) {
	cc := &clientConn{
		conn:    conn,
		out:     newPeerConn(),
		backend: backend,
		sem:     make(chan struct{}, adm.depth),
		adm:     adm,
		reqs:    make(map[uint64]*clientReq),
		holds:   make(map[string]uint64),
	}
	cc.out.conn = conn
	adm.connDelta(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// The response drain: gathers queued responses into writev batches
		// whenever an inline write found the connection busy. A write error
		// severs the connection so the read loop exits too.
		defer wg.Done()
		if err := cc.out.drain(conn); err != nil {
			_ = conn.Close()
		}
	}()
	defer func() {
		cc.teardown()
		cc.out.shutdown()
		wg.Wait()
		_ = conn.Close()
		adm.connDelta(-1)
	}()
	// stop (host shutdown) severs the connection, unblocking the read.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
			_ = conn.Close()
		case <-done:
		}
	}()
	bodyp := clientBodyPool.Get().(*[]byte)
	defer clientBodyPool.Put(bodyp)
	for {
		op, reqID, payload, err := readClientFrameInto(r, bodyp)
		if err != nil {
			return
		}
		switch op {
		case OpAcquire:
			cc.startAcquire(&wg, reqID, string(payload))
		case OpTry:
			cc.startTry(&wg, reqID, string(payload))
		case OpRelease:
			if len(payload) < 8 {
				return // corrupted stream
			}
			fence := binary.BigEndian.Uint64(payload[:8])
			cc.startRelease(&wg, reqID, string(payload[8:]), fence)
		case OpCancel:
			cc.cancelRequest(reqID)
		default:
			return // unknown op: corrupted stream
		}
	}
}

// admit reserves an inflight slot, shedding the request with CodeBusy
// when the per-client queue is full or the listener's admission rate is
// exceeded. The depth check runs first and is undone on a rate reject,
// so a shed request burns no token and frees no one else's slot.
func (cc *clientConn) admit(reqID uint64) bool {
	select {
	case cc.sem <- struct{}{}:
	default:
		cc.adm.shedFull()
		cc.respondErr(reqID, ErrClientBusy)
		return false
	}
	if !cc.adm.admitOne(time.Now()) {
		<-cc.sem
		cc.respondErr(reqID, ErrClientBusy)
		return false
	}
	return true
}

// done returns an admitted request's inflight slot.
func (cc *clientConn) done() {
	<-cc.sem
	cc.adm.finish()
}

// startAcquire runs one acquire in its own goroutine: acquires may block
// for a long time, and one client's queued acquire must not stop its own
// releases (or cancels) from being read.
func (cc *clientConn) startAcquire(wg *sync.WaitGroup, reqID uint64, resource string) {
	if !cc.admit(reqID) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := &clientReq{cancel: cancel}
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		cancel()
		cc.done()
		return
	}
	cc.reqs[reqID] = req
	cc.mu.Unlock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer cancel()
		fence, expires, err := cc.backend.Acquire(ctx, resource)
		cc.mu.Lock()
		delete(cc.reqs, reqID)
		canceled := req.canceled || cc.closed
		if err == nil && !canceled {
			cc.holds[resource] = fence
		}
		cc.mu.Unlock()
		if err == nil && canceled {
			// The grant raced the cancel (or the disconnect): the client is
			// not listening for it anymore, so hand it straight back.
			_ = cc.backend.Release(resource, fence)
			err = context.Canceled
		}
		// Retire the admission before replying: a client that sends its
		// next acquire as soon as this answer lands must find the slot free.
		cc.done()
		if err != nil {
			cc.respondErr(reqID, err)
			return
		}
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:8], fence)
		binary.BigEndian.PutUint64(buf[8:16], expiryNanos(expires))
		cc.respond(RespGrant, reqID, buf[:])
	}()
}

func (cc *clientConn) startTry(wg *sync.WaitGroup, reqID uint64, resource string) {
	if !cc.admit(reqID) {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fence, expires, ok, err := cc.backend.TryAcquire(resource)
		if err != nil {
			cc.done()
			cc.respondErr(reqID, err)
			return
		}
		if ok {
			cc.mu.Lock()
			if cc.closed {
				// Disconnected while the try was in flight: undo.
				cc.mu.Unlock()
				_ = cc.backend.Release(resource, fence)
				cc.done()
				return
			}
			cc.holds[resource] = fence
			cc.mu.Unlock()
		}
		cc.done() // before the reply, as in startAcquire
		var buf [17]byte
		if ok {
			buf[0] = 1
		}
		binary.BigEndian.PutUint64(buf[1:9], fence)
		binary.BigEndian.PutUint64(buf[9:17], expiryNanos(expires))
		cc.respond(RespTry, reqID, buf[:])
	}()
}

// startRelease is exempt from the inflight bound: releases complete
// quickly, always shrink member state, and must stay available to a
// client whose acquire queue is full.
func (cc *clientConn) startRelease(wg *sync.WaitGroup, reqID uint64, resource string, fence uint64) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := cc.backend.Release(resource, fence)
		cc.mu.Lock()
		if held, ok := cc.holds[resource]; ok && (fence == 0 || held == fence) {
			// Whatever the backend said, this connection no longer owns the
			// hold (released, expired, or already gone): stop tracking it.
			delete(cc.holds, resource)
		}
		cc.mu.Unlock()
		if err != nil {
			cc.respondErr(reqID, err)
			return
		}
		cc.respond(RespOK, reqID, nil)
	}()
}

// cancelRequest propagates a client's context cancellation into the
// member's queue: a queued acquire aborts, an already-granted one will
// be handed back by its own goroutine (the canceled flag).
func (cc *clientConn) cancelRequest(reqID uint64) {
	cc.mu.Lock()
	req, ok := cc.reqs[reqID]
	if ok {
		req.canceled = true
	}
	cc.mu.Unlock()
	if ok {
		req.cancel()
	}
}

// teardown cancels every in-flight acquire and releases every hold the
// connection still owns.
func (cc *clientConn) teardown() {
	cc.mu.Lock()
	cc.closed = true
	reqs := make([]*clientReq, 0, len(cc.reqs))
	for _, r := range cc.reqs {
		r.canceled = true
		reqs = append(reqs, r)
	}
	cc.reqs = map[uint64]*clientReq{}
	holds := cc.holds
	cc.holds = map[string]uint64{}
	cc.mu.Unlock()
	for _, r := range reqs {
		r.cancel()
	}
	for resource, fence := range holds {
		_ = cc.backend.Release(resource, fence)
	}
}

func expiryNanos(t time.Time) uint64 {
	if t.IsZero() {
		return 0
	}
	return uint64(t.UnixNano())
}

// ClientGateway is a standalone listener speaking only the client
// protocol — the front door for clusters whose members communicate over
// a non-TCP substrate (transport.Local). A TCPHost needs no gateway: its
// member listener demultiplexes client connections by the handshake
// magic.
type ClientGateway struct {
	ln      net.Listener
	backend ClientBackend
	adm     *admission

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewClientGateway listens on listen ("" for a fresh loopback port) and
// serves dialed clients through backend, with default admission
// (ClientQueue zero value).
func NewClientGateway(listen string, backend ClientBackend) (*ClientGateway, error) {
	return NewClientGatewayWith(listen, backend, ClientQueue{})
}

// NewClientGatewayWith is NewClientGateway with explicit admission
// control: q's depth bounds each connection's in-flight requests, and
// its rate/burst token bucket is shared across every connection the
// gateway accepts.
func NewClientGatewayWith(listen string, backend ClientBackend, q ClientQueue) (*ClientGateway, error) {
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: client gateway: %w", err)
	}
	g := &ClientGateway{ln: ln, backend: backend, adm: newAdmission(q), stop: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			g.wg.Add(1)
			go func() {
				defer g.wg.Done()
				if !readClientHandshake(conn) {
					_ = conn.Close()
					return
				}
				serveClientConn(bufio.NewReader(conn), conn, g.backend, g.adm, g.stop)
			}()
		}
	}()
	return g, nil
}

// Addr returns the gateway's listen address, for clients to Dial.
func (g *ClientGateway) Addr() string { return g.ln.Addr().String() }

// Stats snapshots the gateway's client-tier counters.
func (g *ClientGateway) Stats() ClientStats { return g.adm.stats() }

// Close stops the listener and severs every client connection, releasing
// the holds they owned.
func (g *ClientGateway) Close() {
	g.stopOnce.Do(func() {
		close(g.stop)
		_ = g.ln.Close()
	})
	g.wg.Wait()
}

// readClientHandshake consumes and validates the 8-byte client handshake
// (the caller has not read any bytes yet).
func readClientHandshake(conn net.Conn) bool {
	var hs [8]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return false
	}
	return string(hs[0:4]) == ClientMagic && binary.BigEndian.Uint32(hs[4:8]) == ClientVersion
}
