// Command lockbench is the repository benchmark: it drives one workload
// through the lock service's layers, checks safety on every grant, and
// prints its metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	lockbench --workload token-handoff --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run prints the per-layer ones. See README.md for the
// workloads, the metrics and which end-to-end metric each layer moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, counts and notes.
type report struct {
	metrics    map[string]metric
	samples    map[string]int
	notes      []string
	attempted  int64
	failed     int64
	violations []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), samples: make(map[string]int)}
}

func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{v, unit}
	r.samples[name] = samples
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkTail notes a percentile reported from too few samples.
func (r *report) checkTail(name string, n int, q float64) {
	if !percentileOK(n, q) {
		r.note("%s: %d samples leave fewer than %d beyond the percentile", name, n, minTail)
	}
}

// merge folds a sub-run's counts and notes into r, but not its metrics.
func (r *report) merge(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.violations = append(r.violations, o.violations...)
	r.notes = append(r.notes, o.notes...)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) (*report, error) {
	rep := newReport()
	bufs := newGenBufs(o.seconds)
	b, live := liveWorkloads[o.workload]
	var err error
	switch {
	case live && o.trace:
		err = traceLive(o.workload, b, o, bufs, rep)
	case live:
		_, err = runLive(b, o, bufs, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want token-handoff or gateway-zipf)", o.workload)
	}
	return rep, err
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "token-handoff", "token-handoff or gateway-zipf")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the key stream and the harness seeds derive from it")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "lockbench: --seconds must be at least 1")
		os.Exit(2)
	}
	// One P: on a shared 2-vCPU VM, waking an idle vCPU for every
	// loopback hop costs host scheduling latency, which made live-workload
	// throughput swing by a fifth from run to run. On one P the whole
	// grant path runs without cross-CPU wake-ups, so the figures follow
	// the code rather than the host.
	runtime.GOMAXPROCS(1)
	rep, err := run(o)
	if err == nil {
		want := e2eMetrics
		if o.trace {
			want = layerMetrics
		}
		err = checkNames(rep.metrics, want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("  %-34s %14.4f %-6s samples=%d\n", n, m.Value, m.Unit, rep.samples[n])
	}
	for _, n := range rep.notes {
		fmt.Println("  note:", n)
	}
	for _, v := range rep.violations {
		fmt.Println("  VIOLATION:", v)
	}
	res := result{
		Correct:   len(rep.violations) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
