package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"dagmutex/internal/lockservice"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{900, 0.99, false},
		{1000, 0.99, true},
		{90, 0.9, false},
		{100, 0.9, true},
		{9000, 0.999, false},
		{10000, 0.999, true},
		{5, 0.5, false},
	}
	for _, c := range cases {
		if got := percentileOK(c.n, c.q); got != c.want {
			t.Errorf("percentileOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %d, want 0", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 30},
		{parent: 0, start: 20, end: 50},  // overlaps the first child
		{parent: 0, start: 90, end: 120}, // runs past its parent
		{parent: 2, start: 25, end: 35},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLongestGapCountsFromLastGrantBefore(t *testing.T) {
	ms := time.Millisecond
	grants := []time.Duration{1 * ms, 2 * ms, 5 * ms, 6 * ms, 20 * ms}
	if got := longestGap(grants, 2*ms, 5*ms); got != 3*ms {
		t.Errorf("longestGap = %v, want 3ms", got)
	}
	// The stretch that starts at 6ms, inside the window, ends at 20ms.
	if got := longestGap(grants, 3*ms, 7*ms); got != 14*ms {
		t.Errorf("longestGap = %v, want 14ms", got)
	}
	// No grant after the crash: the outage runs to the window's end.
	if got := longestGap(grants, 30*ms, 40*ms); got != 20*ms {
		t.Errorf("longestGap = %v, want 20ms", got)
	}
}

func TestRotationSplitsMembersIntoDisjointPairs(t *testing.T) {
	seen := map[int]bool{}
	for _, pair := range rotation {
		for _, m := range pair {
			if seen[m] {
				t.Fatalf("member %d in two pairs: %v", m, rotation)
			}
			seen[m] = true
		}
	}
	if len(rotation) != workers || len(seen) != members || rotation[0][0] != 0 {
		t.Fatalf("rotation %v does not give each generator a pair, the centre first", rotation)
	}
}

// fakeLocker grants from a scripted fence sequence without any
// exclusion of its own, so the checker alone must catch what it plants.
type fakeLocker struct {
	mu       sync.Mutex
	fences   []uint64
	next     int
	relErr   error
	released int
}

func (f *fakeLocker) acquire(_ context.Context, key int, name string) (grant, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := grant{key: key, name: name, fence: f.fences[f.next%len(f.fences)]}
	f.next++
	return g, nil
}

func (f *fakeLocker) release(grant) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.released++
	return f.relErr
}

func TestSafetyCatchesDoubleGrant(t *testing.T) {
	chk := newSafety(1)
	lk := &fakeLocker{fences: []uint64{1, 2}}
	ctx := context.Background()
	if _, ok, err := chk.acquire(ctx, lk, 0, "k"); !ok || err != nil {
		t.Fatalf("first grant: ok=%v err=%v", ok, err)
	}
	_, ok, err := chk.acquire(ctx, lk, 0, "k") // the first holder never released
	if ok || !errors.Is(err, errViolation) {
		t.Fatalf("second overlapping grant: ok=%v err=%v, want a violation", ok, err)
	}
	if len(chk.failed()) != 1 {
		t.Fatalf("violations = %v, want one", chk.failed())
	}
}

func TestSafetyCatchesFenceRegression(t *testing.T) {
	chk := newSafety(1)
	lk := &fakeLocker{fences: []uint64{5, 5}}
	ctx := context.Background()
	g, ok, err := chk.acquire(ctx, lk, 0, "k")
	if !ok || err != nil {
		t.Fatalf("first grant: ok=%v err=%v", ok, err)
	}
	if err := chk.release(lk, g, ok); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := chk.acquire(ctx, lk, 0, "k"); ok || !errors.Is(err, errViolation) {
		t.Fatalf("repeated fence: ok=%v err=%v, want a violation", ok, err)
	}
	// The key is free again after a refused grant.
	lk.fences = []uint64{6}
	if _, ok, err := chk.acquire(ctx, lk, 0, "k"); !ok || err != nil {
		t.Fatalf("grant after the violation: ok=%v err=%v", ok, err)
	}
}

func TestSafetyCatchesExpiredLease(t *testing.T) {
	chk := newSafety(1)
	lk := &fakeLocker{fences: []uint64{1}, relErr: lockservice.ErrLeaseExpired}
	g, ok, err := chk.acquire(context.Background(), lk, 0, "k")
	if !ok || err != nil {
		t.Fatalf("grant: ok=%v err=%v", ok, err)
	}
	if err := chk.release(lk, g, ok); !errors.Is(err, errViolation) {
		t.Fatalf("release after expiry: err=%v, want a violation", err)
	}
}

func TestRunLoadCountsPlantedViolationsAsFailures(t *testing.T) {
	// Every third grant repeats the previous fence.
	lk := &fakeLocker{fences: []uint64{1, 2, 2, 3, 4, 4, 5, 6, 6}}
	s := &stack{keys: []string{"k"}, workers: [][]locker{{lk}, {lk}}}
	chk := newSafety(1)
	l := runLoad(s, chk, 1, 20*time.Millisecond, true, newGenBufs(1))
	if l.failed == 0 || len(chk.failed()) == 0 {
		t.Fatalf("planted regressions went unnoticed: %+v", l)
	}
	if l.attempted != l.failed+l.grants {
		t.Fatalf("attempted %d != failed %d + granted %d", l.attempted, l.failed, l.grants)
	}
	if lk.released != int(l.attempted) {
		t.Fatalf("released %d grants of %d: a refused grant must still be handed back", lk.released, l.attempted)
	}
	if len(l.spans) != 3*len(l.lat) {
		t.Fatalf("%d spans for %d completed cycles, want three each", len(l.spans), len(l.lat))
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name string }
		want   []string
	}{{spec.EndToEnd, e2eMetrics}, {spec.PerLayer, layerMetrics}} {
		got := make([]string, len(c.listed))
		for i, m := range c.listed {
			got[i] = m.Name
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("BENCHMARK.json lists %v, the benchmark prints %v", got, c.want)
		}
	}
}
