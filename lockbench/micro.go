package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
	"dagmutex/internal/transport"
)

// microResult is one micro-timing: the median ns per operation over
// several batches, and heap allocations per operation.
type microResult struct {
	ns, allocs float64
}

// timeOps runs op in batches of n, returning the median batch's ns per
// operation and the allocations per operation over every batch.
func timeOps(batches, n int, op func() error) (microResult, error) {
	for i := 0; i < n; i++ { // warm caches and grow buffers first
		if err := op(); err != nil {
			return microResult{}, err
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return microResult{}, err
			}
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	return microResult{ns: medianFloat(per), allocs: float64(ms.Mallocs-mallocs) / float64(batches*n)}, nil
}

// microCodec times DAGCodec.AppendEncode and Decode on the two messages
// of every remote grant: a REQUEST and the PRIVILEGE that answers it.
func microCodec() (enc, dec microResult, err error) {
	var c transport.DAGCodec
	msgs := []mutex.Message{
		core.Request{From: 2, Origin: 3, Epoch: 1, Hops: 2},
		core.Privilege{Generation: 1 << 40, Epoch: 1, Requesting: true, Hops: 2},
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		if frames[i], err = c.Encode(m); err != nil {
			return enc, dec, err
		}
	}
	buf := make([]byte, 0, 64)
	i := 0
	enc, err = timeOps(7, 200000, func() error {
		var err error
		buf, err = c.AppendEncode(buf[:0], msgs[i&1])
		i++
		return err
	})
	if err != nil {
		return enc, dec, err
	}
	dec, err = timeOps(7, 200000, func() error {
		m, err := c.Decode(frames[i&1])
		if err == nil && m.Kind() != msgs[i&1].Kind() {
			err = fmt.Errorf("codec round trip: got %s, want %s", m.Kind(), msgs[i&1].Kind())
		}
		i++
		return err
	})
	return enc, dec, err
}

// microClientFrame times one client-protocol frame written with
// AppendClientFrame and read back with ReadClientFrame.
func microClientFrame() (microResult, error) {
	payload := []byte("key-07")
	buf := make([]byte, 0, 64)
	var r bytes.Reader
	id := uint64(0)
	return timeOps(7, 200000, func() error {
		id++
		buf = transport.AppendClientFrame(buf[:0], transport.OpAcquire, id, payload)
		r.Reset(buf)
		op, got, p, err := transport.ReadClientFrame(&r)
		if err == nil && (op != transport.OpAcquire || got != id || !bytes.Equal(p, payload)) {
			err = fmt.Errorf("client frame round trip: op %d id %d payload %q", op, got, p)
		}
		return err
	})
}

// memNet wires core.Node state machines by an in-memory FIFO queue.
type memNet struct {
	nodes   []*core.Node // index = ID
	queue   []envelope
	granted mutex.ID
}

type envelope struct {
	from, to mutex.ID
	m        mutex.Message
}

type memEnv struct {
	net *memNet
	id  mutex.ID
}

func (e memEnv) Send(to mutex.ID, m mutex.Message) {
	e.net.queue = append(e.net.queue, envelope{e.id, to, m})
}

func (e memEnv) Granted(uint64) { e.net.granted = e.id }

// drain delivers queued messages until the network is quiet.
func (n *memNet) drain() error {
	for i := 0; i < len(n.queue); i++ {
		ev := n.queue[i]
		if err := n.nodes[ev.to].Deliver(ev.from, ev.m); err != nil {
			return err
		}
	}
	n.queue = n.queue[:0]
	return nil
}

// microCore times grant cycles of core.New nodes on a 4-node star: a
// member requests, messages are delivered until it holds the token,
// and it releases. The requester rotates, so every grant moves the
// token.
func microCore() (microResult, error) {
	tree := topology.Star(members)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	net := &memNet{nodes: make([]*core.Node, members+1), queue: make([]envelope, 0, 16)}
	for _, id := range cfg.IDs {
		n, err := core.New(id, memEnv{net, id}, cfg)
		if err != nil {
			return microResult{}, err
		}
		net.nodes[id] = n
	}
	next := mutex.ID(1)
	return timeOps(7, 100000, func() error {
		next = next%members + 1
		net.granted = mutex.Nil
		if err := net.nodes[next].Request(); err != nil {
			return err
		}
		if err := net.drain(); err != nil {
			return err
		}
		if net.granted != next {
			return fmt.Errorf("core cycle: node %d requested, %d granted", next, net.granted)
		}
		if err := net.nodes[next].Release(); err != nil {
			return err
		}
		return net.drain()
	})
}
