package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dagmutex/internal/client"
	"dagmutex/internal/gateway"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
	"dagmutex/internal/telemetry"
)

// members is the lock-service size of both live workloads.
const members = 4

// zipfKeys and zipfS shape the gateway-zipf key stream.
const (
	zipfKeys = 64
	zipfS    = 1.1
)

// workers is the number of load-generating goroutines: one per CPU of
// the 2-CPU hosts the benchmark targets. More would measure scheduler
// queueing rather than the lock service.
const workers = 2

// epoch anchors every timestamp the benchmark and the trace observer
// take, so spans and core events share one monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// holdAPI is what both lockservice.Service and lockservice.Client offer.
type holdAPI interface {
	Acquire(ctx context.Context, resource string) (lockservice.Hold, error)
	ReleaseHold(h lockservice.Hold) error
}

// stack is one built live lock service plus the lockers each
// generator drives.
type stack struct {
	keys     []string
	zipf     bool       // draw keys from Zipf(zipfS); otherwise key 0 only
	workers  [][]locker // generator w rotates through workers[w], one per cycle
	warm     []locker   // one per member and connection: the warm-up grants
	services []*lockservice.Service
	gw       *gateway.Gateway
	conns    []*client.Conn
}

func (s *stack) close() {
	for _, c := range s.conns {
		_ = c.Close() // teardown; the connection is no longer used
	}
	if s.gw != nil {
		_ = s.gw.Close() // always nil
	}
	for _, svc := range s.services {
		svc.Close()
	}
}

// warmUp takes one grant through every member and connection.
func (s *stack) warmUp(chk *safety) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, lk := range s.warm {
		g, ok, err := chk.acquire(ctx, lk, 0, s.keys[0])
		if err != nil {
			if errors.Is(err, errViolation) {
				_ = chk.release(lk, g, ok) // the violation is already recorded
			}
			return fmt.Errorf("warm-up grant: %w", err)
		}
		if err := chk.release(lk, g, ok); err != nil {
			return fmt.Errorf("warm-up release: %w", err)
		}
	}
	return nil
}

// rotation is each generator's member pair, as indexes into the
// members: generator 0 alternates between the star's centre (member 1)
// and member 2, generator 1 between members 3 and 4. The generators
// never share a member, so every grant lands on a different member than
// the one before it. The split is fixed: splits that are the same up to
// relabelling the star's leaves still settled into different schedules
// on one P, which showed as a 20% seed-to-seed spread of the p50.
var rotation = [][]int{{0, 1}, {2, 3}}

// tokenHandoffStack builds the token-handoff service: 4 members over
// loopback TCP (or the in-process Local transport when local is set),
// one shard, one key.
func tokenHandoffStack(local bool, obs func(telemetry.TraceEvent)) (*stack, error) {
	cfg := lockservice.Config{Shards: 1, Nodes: members, TraceObserver: obs}
	s := &stack{keys: []string{"handoff"}}
	var apis []holdAPI
	if local {
		svc, err := lockservice.New(cfg)
		if err != nil {
			return nil, err
		}
		s.services = []*lockservice.Service{svc}
		for id := 1; id <= members; id++ {
			c, err := svc.On(mutex.ID(id))
			if err != nil {
				s.close()
				return nil, err
			}
			apis = append(apis, c)
		}
	} else {
		svcs, err := lockservice.NewTCPCluster(cfg, members)
		if err != nil {
			return nil, err
		}
		s.services = svcs
		for _, svc := range svcs {
			apis = append(apis, svc)
		}
	}
	for _, a := range apis {
		s.warm = append(s.warm, serviceLocker{a})
	}
	for _, pair := range rotation {
		var lks []locker
		for _, m := range pair {
			lks = append(lks, serviceLocker{apis[m]})
		}
		s.workers = append(s.workers, lks)
	}
	return s, nil
}

// zipfKeyNames returns the gateway-zipf key space.
func zipfKeyNames() []string {
	keys := make([]string, zipfKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	return keys
}

// front selects which front-end the zipf generators acquire through.
type front int

const (
	viaGateway   front = iota // two connections to one gateway over all members
	viaDirect                 // one connection straight to member 1's listener
	viaInProcess              // member 1's Service, in process
)

// zipfStack builds the gateway-zipf service: 4 TCP members with
// default shards, each serving dialed clients, fronted per f.
func zipfStack(f front, obs func(telemetry.TraceEvent)) (*stack, error) {
	svcs, err := lockservice.NewTCPCluster(lockservice.Config{TraceObserver: obs}, members)
	if err != nil {
		return nil, err
	}
	s := &stack{keys: zipfKeyNames(), zipf: true, services: svcs}
	addrs := make([]string, len(svcs))
	for i, svc := range svcs {
		if err := svc.ServeClients(mutex.ID(i + 1)); err != nil {
			s.close()
			return nil, err
		}
		addrs[i] = svc.Addr()
		s.warm = append(s.warm, serviceLocker{svc})
	}
	shards := svcs[0].Shards()
	switch f {
	case viaInProcess:
		for w := 0; w < workers; w++ {
			s.workers = append(s.workers, []locker{serviceLocker{svcs[0]}})
		}
		return s, nil
	case viaDirect:
		c, err := client.Dial(addrs[0])
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = []*client.Conn{c}
		lk := connLocker{c, shards}
		s.warm = append(s.warm, lk)
		for w := 0; w < workers; w++ {
			s.workers = append(s.workers, []locker{lk})
		}
		return s, nil
	}
	s.gw, err = gateway.New(gateway.Config{Members: addrs})
	if err != nil {
		s.close()
		return nil, err
	}
	for w := 0; w < workers; w++ {
		c, err := client.Dial(s.gw.Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
		lk := connLocker{c, shards}
		s.warm = append(s.warm, lk)
		s.workers = append(s.workers, []locker{lk})
	}
	return s, nil
}

// genBuf is one generator's sample storage, sized before the window
// and reused across windows so recording does not allocate.
type genBuf struct {
	lat   []int64 // acquire latency, ns
	spans []span
}

func newGenBufs(seconds int) []*genBuf {
	out := make([]*genBuf, workers)
	for i := range out {
		out[i] = &genBuf{lat: make([]int64, 0, 25000*seconds)}
	}
	return out
}

// load is the outcome of one closed-loop window.
type load struct {
	attempted, failed int64
	grants            int64
	elapsed           time.Duration
	use               usage
	lat               []int64 // sorted
	spans             []span
}

// rate is the window's completed cycles per wall second.
func (l load) rate() float64 { return float64(l.grants) / l.elapsed.Seconds() }

// runLoad drives s with closed-loop generators for d: each acquires,
// checks, releases and only then starts its next cycle. Key draws come
// from seed. With traced set, every cycle records a cycle span with
// acquire and release child spans.
func runLoad(s *stack, chk *safety, seed int64, d time.Duration, traced bool, bufs []*genBuf) load {
	ctx, cancel := context.WithTimeout(context.Background(), d+30*time.Second)
	defer cancel()
	type tally struct{ attempted, failed, grants, last int64 }
	tallies := make([]tally, workers)
	for _, b := range bufs {
		b.lat, b.spans = b.lat[:0], b.spans[:0]
		if traced && b.spans == nil {
			b.spans = make([]span, 0, 3*25000*int(d/time.Second+1))
		}
	}
	before := readUsage()
	start := nanotime()
	deadline := start + int64(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var zipf *rand.Zipf
			if s.zipf {
				zipf = rand.NewZipf(rand.New(rand.NewSource(seed*7919+int64(w))), zipfS, 1, uint64(len(s.keys)-1))
			}
			lks, b, t := s.workers[w], bufs[w], &tallies[w]
			for i := 0; ; i++ {
				key := 0
				if s.zipf {
					key = int(zipf.Uint64())
				}
				lk := lks[i%len(lks)]
				c0 := nanotime()
				if c0 >= deadline {
					t.last = c0
					return
				}
				t.attempted++
				g, ok, err := chk.acquire(ctx, lk, key, s.keys[key])
				c1 := nanotime()
				if !ok {
					t.failed++
					if errors.Is(err, errViolation) {
						_ = chk.release(lk, g, ok) // hand the bad grant back; already counted
					}
					continue
				}
				c2 := nanotime()
				if chk.release(lk, g, ok) != nil {
					t.failed++
				} else {
					t.grants++
				}
				c3 := nanotime()
				b.lat = append(b.lat, c1-c0)
				if traced {
					root := int32(len(b.spans))
					b.spans = append(b.spans,
						span{parent: -1, name: spanCycle, shard: int32(g.shard), fence: g.fence, start: c0, end: c3},
						span{parent: root, name: spanAcquire, shard: int32(g.shard), fence: g.fence, start: c0, end: c1},
						span{parent: root, name: spanRelease, shard: int32(g.shard), fence: g.fence, start: c2, end: c3})
				}
			}
		}(w)
	}
	wg.Wait()
	after := readUsage()
	var out load
	end := start
	var lats [][]int64
	for w, t := range tallies {
		out.attempted += t.attempted
		out.failed += t.failed
		out.grants += t.grants
		end = max(end, t.last)
		lats = append(lats, bufs[w].lat)
		if traced {
			// Parents index into the merged buffer, so shift them.
			base := int32(len(out.spans))
			for _, sp := range bufs[w].spans {
				if sp.parent >= 0 {
					sp.parent += base
				}
				out.spans = append(out.spans, sp)
			}
		}
	}
	out.elapsed = time.Duration(end - start)
	out.use = after.sub(before)
	out.lat = mergeSorted(lats...)
	return out
}
