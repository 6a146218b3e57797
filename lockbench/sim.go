package main

import (
	"fmt"
	"sort"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/simharness"
	"dagmutex/internal/telemetry"
)

// The recovery rung of the traced run: a kary4 cluster on virtual time
// in which a subset of members request with exponential think times,
// and crash episodes in the shape of the simharness battery: a member
// dies (the initial holder, in the first episode), a second member dies
// inside the first crash's detection window, and then the member that
// coordinates the recovery dies. Detection is injected at a fixed
// delay, so outages measure protocol recovery, not detector tuning.
const (
	simNodes      = 200
	simRequesters = 64
	simThink      = 500 * time.Millisecond
	simHold       = 2 * time.Millisecond
	simDuration   = time.Minute
	simEpisodes   = 3
	simEvery      = 15 * time.Second // episode k starts at (k+1)*simEvery
	simDetect     = 50 * time.Millisecond
	// simHorizon is how long after each crash the outage is looked for.
	simHorizon = 5 * time.Second
)

// crash is one scheduled fail-stop.
type crash struct {
	at     time.Duration
	victim mutex.ID
}

// simEpisode returns episode k's three crashes. The coordinator is the
// highest-ID member alive, which the earlier episodes moved down by k.
func simEpisode(k int) [3]crash {
	at := time.Duration(k+1) * simEvery
	return [3]crash{
		{at, mutex.ID(1 + k)},
		{at + 30*time.Millisecond, mutex.ID(simNodes/2 + k)},
		{at + simDetect + 20*time.Millisecond, mutex.ID(simNodes - k)},
	}
}

// buildHarness builds one harness with the crash episode scheduled.
func buildHarness(seed int64) (*simharness.Harness, error) {
	h, err := simharness.New(simharness.Config{Nodes: simNodes, Topology: "kary4", Seed: seed, Trace: true})
	if err != nil {
		return nil, err
	}
	for k := 0; k < simEpisodes; k++ {
		for _, c := range simEpisode(k) {
			h.ScheduleCrash(c.at, c.victim, simDetect)
		}
	}
	return h, nil
}

func simWorkload() simharness.Workload {
	return simharness.Workload{Duration: simDuration, Requesters: simRequesters, Think: simThink, Hold: simHold}
}

// simRun is what one harness run yields, read from its report and trace.
type simRun struct {
	report      simharness.Report
	wall        time.Duration
	unavailable []time.Duration // per episode: longest grant-free stretch after any of its crashes
	recovery    []time.Duration // per episode: first PROBE to the next GRANT
}

// fingerprint is what must repeat exactly across runs of one seed.
func (r simRun) fingerprint() string {
	return fmt.Sprintf("grants=%d msgs=%d unavailable=%v recoveries=%d regens=%d",
		r.report.Grants, r.report.Messages, r.unavailable, r.report.Recoveries, r.report.Regenerations)
}

// runHarness runs h and digests its trace.
func runHarness(h *simharness.Harness) (simRun, error) {
	t0 := time.Now()
	rep, err := h.Run(simWorkload())
	out := simRun{report: rep, wall: time.Since(t0)}
	if err != nil {
		return out, err
	}
	digestTrace(h.Trace(), &out)
	return out, nil
}

// digestTrace derives each episode's outage and recovery time from the
// harness trace.
func digestTrace(trace []simharness.TraceRecord, out *simRun) {
	var grants, probes []time.Duration
	for _, r := range trace {
		switch {
		case r.Ev.Kind == telemetry.TraceGrant:
			grants = append(grants, r.At)
		case r.Ev.Kind == telemetry.TraceRecovery && r.Ev.Detail == "PROBE":
			probes = append(probes, r.At)
		}
	}
	for k := 0; k < simEpisodes; k++ {
		ep := simEpisode(k)
		var worst time.Duration
		for _, c := range ep {
			worst = max(worst, longestGap(grants, c.at, c.at+simHorizon))
		}
		out.unavailable = append(out.unavailable, worst)
		i := sort.Search(len(probes), func(i int) bool { return probes[i] >= ep[0].at })
		if i == len(probes) {
			continue
		}
		j := sort.Search(len(grants), func(j int) bool { return grants[j] >= probes[i] })
		if j < len(grants) {
			out.recovery = append(out.recovery, grants[j]-probes[i])
		}
	}
}

// longestGap returns the longest stretch with no grant that starts
// inside [from, to], counting from the last grant before from. The
// sorted grants are instants since the start of the run.
func longestGap(grants []time.Duration, from, to time.Duration) time.Duration {
	i := sort.Search(len(grants), func(i int) bool { return grants[i] >= from })
	prev := from
	if i > 0 {
		prev = grants[i-1]
	}
	var best time.Duration
	for ; prev <= to; i++ {
		if i == len(grants) {
			return max(best, to-prev)
		}
		best = max(best, grants[i]-prev)
		prev = grants[i]
	}
	return best
}

// simReps is how many harness runs the rung makes; run i uses seed
// 1000*seed+i, and run 0 is replayed to check determinism.
const simReps = 8

// simRung measures the recovery and harness layers, which the live
// workloads do not exercise.
func simRung(o options, rep *report) error {
	var unavailable, recovery []float64
	var grants, messages, recoveries, regens int64
	var wall time.Duration
	var first simRun
	for i := 0; i <= simReps; i++ {
		seed := o.seed*1000 + int64(i%simReps)
		h, err := buildHarness(seed)
		if err != nil {
			return err
		}
		r, err := runHarness(h)
		rep.attempted += r.report.Grants
		if err != nil {
			return fmt.Errorf("crash rung, seed %d: %w", seed, err)
		}
		if i == 0 {
			first = r
		}
		if i == simReps {
			if r.fingerprint() != first.fingerprint() {
				rep.failed++
				rep.violations = append(rep.violations, fmt.Sprintf("harness seed %d did not replay: %s, then %s",
					seed, first.fingerprint(), r.fingerprint()))
			}
			break
		}
		for _, u := range r.unavailable {
			unavailable = append(unavailable, float64(u)/1e6)
		}
		for _, d := range r.recovery {
			recovery = append(recovery, float64(d)/1e6)
		}
		grants += r.report.Grants
		messages += r.report.Messages
		recoveries += r.report.Recoveries
		regens += r.report.Regenerations
		wall += r.wall
	}
	rep.add("core.unavailable_ms", medianFloat(unavailable), "ms", len(unavailable))
	rep.add("core.recovery_ms", medianFloat(recovery), "ms", len(recovery))
	rep.add("core.recoveries", float64(recoveries), "count", len(unavailable))
	rep.add("core.regenerations", float64(regens), "count", len(unavailable))
	rep.add("simharness.ns_per_message", ratio(float64(wall.Nanoseconds()), float64(messages)), "ns", int(messages))
	rep.add("simharness.speedup", ratio(float64(simDuration)*simReps, float64(wall)), "x", simReps)
	rep.note("crash rung over %d seeds: grants=%d messages=%d msgs/grant=%.4f (exact for a seed)",
		simReps, grants, messages, ratio(float64(messages), float64(grants)))
	return nil
}
