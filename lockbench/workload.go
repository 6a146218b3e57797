package main

import (
	"fmt"
	"runtime"
	"time"

	"dagmutex/internal/telemetry"
)

// Set-up and warm-up sizes. Set-up is repeated and its median reported,
// because one build of a 4-member TCP service is about a millisecond:
// setupBuilds builds before the window and as many after it, so the
// median does not rest on the host's state at one moment.
const (
	setupBuilds = 41
	warmLoad    = time.Second
	ladderLoad  = time.Second
	// traceWindow bounds the traced window, whose spans are kept in
	// memory: about 40 bytes for each of three spans per cycle.
	traceWindow = 5 * time.Second
)

// builder builds a live workload's stack; obs, when set, receives the
// members' core trace events.
type builder func(obs func(telemetry.TraceEvent)) (*stack, error)

var liveWorkloads = map[string]builder{
	"token-handoff": func(obs func(telemetry.TraceEvent)) (*stack, error) {
		return tokenHandoffStack(false, obs)
	},
	"gateway-zipf": func(obs func(telemetry.TraceEvent)) (*stack, error) {
		return zipfStack(viaGateway, obs)
	},
}

// counters sums the lock-service counters over a stack's services.
type counters struct {
	grants, messages, hops, regrants int64
	waitP99                          float64 // ms, the worst member's
}

func readCounters(s *stack) counters {
	var c counters
	for _, svc := range s.services {
		st := svc.Stats()
		c.grants += st.Grants
		c.messages += st.Messages
		c.hops += st.Hops
		c.regrants += st.Regrants
		c.waitP99 = max(c.waitP99, st.Wait.P99)
	}
	return c
}

func (c counters) sub(d counters) counters {
	return counters{c.grants - d.grants, c.messages - d.messages, c.hops - d.hops, c.regrants - d.regrants, c.waitP99}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupLive builds the workload setupBuilds times, timing each build
// up to one warm-up grant at every member and connection, and keeps
// the last build running unless discard is set. Every build's grants
// are safety-checked.
func setupLive(b builder, obs func(telemetry.TraceEvent), discard bool, rep *report) (*stack, *safety, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := b(obs)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("build: %w", err)
		}
		chk := newSafety(len(s.keys))
		err = s.warmUp(chk)
		times = append(times, time.Since(t0).Seconds())
		rep.attempted += int64(len(s.warm))
		if err == nil && i == setupBuilds-1 && !discard {
			return s, chk, times, nil // the caller reports this build's violations
		}
		rep.violations = append(rep.violations, chk.failed()...)
		s.close()
		if err != nil || i == setupBuilds-1 {
			return nil, nil, times, err
		}
	}
}

// window runs a discarded warm-up load and then the measured window on
// a built stack.
func window(s *stack, chk *safety, o options, d time.Duration, traced bool, bufs []*genBuf, rep *report) load {
	w := runLoad(s, chk, o.seed, warmLoad, false, bufs)
	rep.attempted += w.attempted
	rep.failed += w.failed
	runtime.GC()
	l := runLoad(s, chk, o.seed, d, traced, bufs)
	rep.attempted += l.attempted
	rep.failed += l.failed
	rep.violations = append(rep.violations, chk.failed()...)
	return l
}

// runLive measures a live workload's end-to-end metrics.
func runLive(b builder, o options, bufs []*genBuf, rep *report) (load, error) {
	s, chk, setups, err := setupLive(b, nil, false, rep)
	if err != nil {
		return load{}, err
	}
	l := window(s, chk, o, time.Duration(o.seconds)*time.Second, false, bufs, rep)
	s.close()
	if l.grants == 0 {
		return load{}, fmt.Errorf("no grant completed in the window")
	}
	_, _, after, err := setupLive(b, nil, true, rep)
	if err != nil {
		return load{}, err
	}
	setups = append(setups, after...)
	grants := float64(l.grants)
	rep.add("setup_s", medianFloat(setups), "s", len(setups))
	rep.add("grants_per_s", l.rate(), "1/s", int(l.grants))
	rep.add("acquire_p90_ms", ms(quantile(l.lat, 0.90)), "ms", len(l.lat))
	rep.add("cpu_us_per_grant", float64(l.use.cpu.Microseconds())/grants, "us", int(l.grants))
	rep.add("allocs_per_grant", float64(l.use.allocs)/grants, "count", int(l.grants))
	return l, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// traceLive runs a live workload with tracing: the untraced window for
// the overhead baseline, then a traced window whose spans join the
// core's grant events, then the layer ladder and micro-timings.
func traceLive(name string, b builder, o options, bufs []*genBuf, rep *report) error {
	e2e := newReport()
	base, err := runLive(b, o, bufs, e2e)
	if err != nil {
		return err
	}
	rep.merge(e2e)
	// The untraced window's p50 and p99 are reported here rather than end
	// to end: on one P the token-handoff p50 is bimodal from run to run,
	// and the p99 swings with stolen CPU time on a shared 2-CPU host.
	rep.add("acquire.p50_ms", ms(quantile(base.lat, 0.50)), "ms", len(base.lat))
	rep.add("acquire.p99_ms", ms(quantile(base.lat, 0.99)), "ms", len(base.lat))
	rep.checkTail("acquire.p99_ms", len(base.lat), 0.99)
	ev := newCoreEvents(nanotime, 60000*int((warmLoad+traceWindow)/time.Second))
	s, chk, _, err := setupLive(b, ev.observe, false, rep)
	if err != nil {
		return err
	}
	defer s.close()
	c0 := readCounters(s)
	l := window(s, chk, o, min(traceWindow, time.Duration(o.seconds)*time.Second), true, bufs, rep)
	c := readCounters(s).sub(c0)
	if l.grants == 0 {
		return fmt.Errorf("no grant completed in the traced window")
	}
	rep.add("core.msgs_per_grant", ratio(float64(c.messages), float64(c.grants)), "count", int(c.grants))
	rep.add("core.hops_per_grant", ratio(float64(c.hops), float64(c.grants)), "count", int(c.grants))
	rep.add("lockservice.regrant_ratio", ratio(float64(c.regrants), float64(c.grants)), "ratio", int(c.grants))
	rep.add("lockservice.wait_p99_ms", c.waitP99, "ms", int(c.grants))
	if s.gw != nil {
		st := s.gw.Stats()
		rep.add("gateway.shed_ratio", ratio(float64(st.Shed()), float64(st.Admitted)), "ratio", int(st.Admitted))
	}
	rep.add("trace.overhead_pct", 100*(base.rate()-l.rate())/base.rate(), "%", 2)
	spanMetrics(l.spans, ev, rep)
	return ladder(name, o, base, bufs, rep)
}

// spanMetrics derives the per-layer split of each cycle from its spans
// and the core GRANT instant of the same (shard, fence).
func spanMetrics(spans []span, ev *coreEvents, rep *report) {
	at, dropped := ev.index()
	if dropped > 0 {
		rep.note("trace: %d core GRANT events past the buffer were not kept", dropped)
	}
	self := selfTimes(spans)
	var cycleSelf, pre, post, rel, acq []int64
	type split struct{ dur, pre int64 }
	var joined []split
	for i, sp := range spans {
		switch sp.name {
		case spanCycle:
			cycleSelf = append(cycleSelf, self[i])
		case spanRelease:
			rel = append(rel, sp.end-sp.start)
		case spanAcquire:
			d := sp.end - sp.start
			acq = append(acq, d)
			g, ok := at[grantKey{sp.shard, sp.fence}]
			if !ok || g < sp.start || g > sp.end {
				continue
			}
			pre = append(pre, g-sp.start)
			post = append(post, sp.end-g)
			joined = append(joined, split{d, g - sp.start})
		}
	}
	rep.add("trace.joined_pct", 100*ratio(float64(len(joined)), float64(len(acq))), "%", len(acq))
	rep.add("trace.cycle_self_us", us(quantile(sortedCopy(cycleSelf), 0.5)), "us", len(cycleSelf))
	rep.add("trace.acquire_pre_grant_us", us(quantile(sortedCopy(pre), 0.5)), "us", len(pre))
	rep.add("trace.acquire_post_grant_us", us(quantile(sortedCopy(post), 0.5)), "us", len(post))
	rep.add("trace.release_us", us(quantile(sortedCopy(rel), 0.5)), "us", len(rel))
	rep.checkTail("trace.stall_p999_ms", len(joined), 0.999)
	durs := make([]int64, len(joined))
	for i, j := range joined {
		durs[i] = j.dur
	}
	p999 := quantile(sortedCopy(durs), 0.999)
	var sumDur, sumPre int64
	n := 0
	for _, j := range joined {
		if j.dur >= p999 {
			sumDur += j.dur
			sumPre += j.pre
			n++
		}
	}
	rep.add("trace.stall_p999_ms", ms(p999), "ms", len(joined))
	rep.add("trace.stall_pre_grant_pct", 100*ratio(float64(sumPre), float64(sumDur)), "%", n)
}

// quickLoad builds a stack, warms it and measures a short window: one
// rung of the layer ladder.
func quickLoad(b func() (*stack, error), o options, bufs []*genBuf, rep *report) (load, *stack, error) {
	s, err := b()
	if err != nil {
		return load{}, nil, err
	}
	chk := newSafety(len(s.keys))
	if err := s.warmUp(chk); err != nil {
		s.close()
		return load{}, nil, err
	}
	rep.attempted += int64(len(s.warm))
	l := window(s, chk, o, ladderLoad, false, bufs, rep)
	if l.grants == 0 {
		s.close()
		return l, nil, fmt.Errorf("ladder: no grant completed")
	}
	return l, s, nil
}

func allocsPer(l load) float64 { return float64(l.use.allocs) / float64(l.grants) }

// ladder measures the same grant through progressively more layers —
// in process over Local, over TCP, through a member's client listener,
// through the gateway — and reports each layer as the difference
// between neighbouring rungs. The workload's own untraced window
// stands in for its rung.
func ladder(name string, o options, own load, bufs []*genBuf, rep *report) error {
	local, s, err := quickLoad(func() (*stack, error) { return tokenHandoffStack(true, nil) }, o, bufs, rep)
	if err != nil {
		return err
	}
	s.close()
	localP50 := quantile(local.lat, 0.5)
	rep.add("runtime.local_handoff_us", us(localP50), "us", len(local.lat))

	tcp := own
	if name != "token-handoff" {
		if tcp, s, err = quickLoad(func() (*stack, error) { return tokenHandoffStack(false, nil) }, o, bufs, rep); err != nil {
			return err
		}
		s.close()
	}
	rep.add("transport.tcp_link_us", us(quantile(tcp.lat, 0.5)-localP50), "us", len(tcp.lat))

	inproc, s, err := quickLoad(func() (*stack, error) { return zipfStack(viaInProcess, nil) }, o, bufs, rep)
	if err != nil {
		return err
	}
	s.close()
	inP50 := quantile(inproc.lat, 0.5)
	rep.add("lockservice.local_acquire_us", us(inP50), "us", len(inproc.lat))

	direct, s, err := quickLoad(func() (*stack, error) { return zipfStack(viaDirect, nil) }, o, bufs, rep)
	if err != nil {
		return err
	}
	s.close()
	dP50 := quantile(direct.lat, 0.5)
	rep.add("client.direct_acquire_p50_us", us(dP50), "us", len(direct.lat))
	rep.add("client.direct_acquire_p99_us", us(quantile(direct.lat, 0.99)), "us", len(direct.lat))
	rep.checkTail("client.direct_acquire_p99_us", len(direct.lat), 0.99)
	rep.add("client.direct_allocs_per_grant", allocsPer(direct), "count", int(direct.grants))
	rep.add("transport.client_listener_us", us(dP50-inP50), "us", len(direct.lat))

	gw := own
	if name != "gateway-zipf" {
		if gw, s, err = quickLoad(func() (*stack, error) { return zipfStack(viaGateway, nil) }, o, bufs, rep); err != nil {
			return err
		}
		st := s.gw.Stats()
		s.close()
		rep.add("gateway.shed_ratio", ratio(float64(st.Shed()), float64(st.Admitted)), "ratio", int(st.Admitted))
	}
	rep.add("gateway.forward_us", us(quantile(gw.lat, 0.5)-dP50), "us", len(gw.lat))
	rep.add("gateway.allocs_per_grant", allocsPer(gw)-allocsPer(direct), "count", int(gw.grants))

	if err := simRung(o, rep); err != nil {
		return err
	}
	return micro(rep)
}

// micro runs the per-layer micro-timings of public entry points.
func micro(rep *report) error {
	enc, dec, err := microCodec()
	if err != nil {
		return err
	}
	rep.add("transport.codec_encode_ns", enc.ns, "ns", 7)
	rep.add("transport.codec_decode_ns", dec.ns, "ns", 7)
	rep.add("transport.codec_allocs", enc.allocs+dec.allocs, "count", 7)
	cf, err := microClientFrame()
	if err != nil {
		return err
	}
	rep.add("transport.client_frame_ns", cf.ns, "ns", 7)
	rep.add("transport.client_frame_allocs", cf.allocs, "count", 7)
	cc, err := microCore()
	if err != nil {
		return err
	}
	rep.add("core.deliver_ns", cc.ns, "ns", 7)
	rep.add("core.deliver_allocs", cc.allocs, "count", 7)
	return nil
}
