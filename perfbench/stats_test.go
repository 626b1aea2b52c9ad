package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 50}, {19, 50}, {20, 50}, {30, 66}, {40, 75}, {99, 89}, {100, 90}, {5000, 90},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for n := 20; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		s := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Fatalf("n=%d: p%d leaves %d samples beyond, want >= %d", n, s.TailPct, beyond, tailBeyond)
		}
		if s.N != n {
			t.Fatalf("n=%d: summary counts %d samples", n, s.N)
		}
		// One percentile higher would leave fewer than ten beyond, unless
		// the p90 cap stopped the rule.
		if s.TailPct < maxTailPct {
			next := percentile(xs, s.TailPct+1)
			over := 0
			for _, x := range xs {
				if x > next {
					over++
				}
			}
			if over >= tailBeyond {
				t.Fatalf("n=%d: p%d also leaves %d beyond; rule picked p%d", n, s.TailPct+1, over, s.TailPct)
			}
		}
	}
}

// virtualClock is a single-connection clock: sleeping jumps to the
// deadline and requests advance time by their service time.
type virtualClock struct{ now time.Time }

func (c *virtualClock) Now() time.Time { return c.now }

func (c *virtualClock) SleepUntil(_ context.Context, t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clk := &virtualClock{now: time.Unix(0, 0)}
	start := clk.now
	// Request 0 stalls for 55 ms; the rest take 1 ms. At 100/s the
	// stall delays requests 1-4, and each is charged its wait.
	recs := openLoop(context.Background(), clk, start, 100, 5, 1, start.Add(time.Hour), func(_ context.Context, _, i int) error {
		if i == 0 {
			clk.now = clk.now.Add(55 * time.Millisecond)
		} else {
			clk.now = clk.now.Add(time.Millisecond)
		}
		return nil
	})
	wantLat := []time.Duration{55, 46, 37, 28, 19}
	wantLag := []time.Duration{0, 45, 36, 27, 18}
	for i, r := range recs {
		if r.Latency() != wantLat[i]*time.Millisecond || r.Lag() != wantLag[i]*time.Millisecond {
			t.Errorf("request %d: latency %v lag %v, want %v and %v", i, r.Latency(), r.Lag(),
				wantLat[i]*time.Millisecond, wantLag[i]*time.Millisecond)
		}
	}
	rep := analyze(recs)
	if rep.BacklogMax != 3 {
		t.Errorf("backlog max %d, want 3 (requests 2-4 waiting when 1 starts)", rep.BacklogMax)
	}
	if rep.Latency.P50 != 37 {
		t.Errorf("p50 %v ms, want 37", rep.Latency.P50)
	}
}

func TestOpenLoopMissesPastStop(t *testing.T) {
	clk := &virtualClock{now: time.Unix(0, 0)}
	start := clk.now
	recs := openLoop(context.Background(), clk, start, 100, 4, 1, start.Add(15*time.Millisecond), func(context.Context, int, int) error {
		clk.now = clk.now.Add(30 * time.Millisecond)
		return nil
	})
	// Request 0 runs to 30 ms, past the 15 ms stop: 1 is never sent.
	if recs[0].Missed || !recs[1].Missed || !recs[2].Missed || !recs[3].Missed {
		t.Fatalf("missed flags %v %v %v %v, want only 1-3 missed", recs[0].Missed, recs[1].Missed, recs[2].Missed, recs[3].Missed)
	}
	rep := analyze(recs)
	if rep.Failed != 3 || !math.IsInf(rep.Latency.Tail, 1) {
		t.Fatalf("failed %d, tail %v: want 3 counted as infinitely late", rep.Failed, rep.Latency.Tail)
	}
}

// TestClosedLoopRate runs the closed loop against a simulated server
// that takes 20 ms per request, every fifth failing: the counted rate
// is exactly the successes after the warm-up, 40/s.
func TestClosedLoopRate(t *testing.T) {
	clk := &virtualClock{now: time.Unix(0, 0)}
	rate, lat, sent, failed := closedLoop(context.Background(), clk, 1, 500*time.Millisecond, 2500*time.Millisecond,
		func(_ context.Context, _, i int) error {
			clk.now = clk.now.Add(20 * time.Millisecond)
			if i%5 == 4 {
				return errors.New("refused")
			}
			return nil
		})
	if sent != 125 || failed != 25 {
		t.Fatalf("sent %d failed %d, want 125 and 25", sent, failed)
	}
	if rate != 40 || len(lat) != 80 || lat[0] != 20 {
		t.Fatalf("rate %v/s over %d latencies, want 40/s over 80 of 20 ms", rate, len(lat))
	}
}

func TestAttributeOverlappingChildren(t *testing.T) {
	// root [0,100]; A [10,50] with child C [20,25]; B [30,70] overlaps A.
	sp := []span{
		{Layer: rootLayer, Name: rootName, Start: 0, End: 100},
		{Name: "C", Start: 20, End: 25},
		{Name: "A", Start: 10, End: 50},
		{Name: "B", Start: 30, End: 70},
	}
	attribute(sp)
	want := map[string]struct {
		self   int64
		parent int
	}{rootName: {40, -1}, "C": {5, 2}, "A": {25, 0}, "B": {30, 0}}
	var sum int64
	for _, s := range sp {
		w := want[s.Name]
		if s.Self != w.self || s.Parent != w.parent {
			t.Errorf("%s: self %d parent %d, want %d and %d", s.Name, s.Self, s.Parent, w.self, w.parent)
		}
		sum += s.Self
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestAttributeIdenticalIntervalsNest(t *testing.T) {
	// Two spans over the same interval: the one recorded first (it ended
	// first) is the inner one.
	sp := []span{
		{Layer: rootLayer, Name: rootName, Start: 0, End: 10},
		{Name: "inner", Start: 2, End: 8},
		{Name: "outer", Start: 2, End: 8},
	}
	attribute(sp)
	if sp[1].Parent != 2 || sp[2].Parent != 0 {
		t.Fatalf("parents %d %d, want 2 and 0", sp[1].Parent, sp[2].Parent)
	}
	if sp[1].Self != 6 || sp[2].Self != 0 || sp[0].Self != 4 {
		t.Fatalf("self %d %d %d, want 4 6 0", sp[0].Self, sp[1].Self, sp[2].Self)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// and workload lists the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var progNames []string
	for _, w := range workloads {
		progNames = append(progNames, w.name)
	}
	if !slices.Equal(names, progNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, progNames)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
