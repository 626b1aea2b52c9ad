package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean something.
const tailBeyond = 10

// maxTailPct caps the tail percentile at p90: past it the estimate
// rests on too few samples to repeat from run to run.
const maxTailPct = 90

// tailPercentile returns the highest whole percentile, at most p90,
// that has at least tailBeyond of n samples beyond it. Below
// 2*tailBeyond samples no percentile above the median qualifies, and
// the median (50) is returned.
func tailPercentile(n int) int {
	if n < 2*tailBeyond {
		return 50
	}
	p := 100 * (n - tailBeyond) / n // floor: rounding down keeps ≥10 beyond
	if p > maxTailPct {
		p = maxTailPct
	}
	return p
}

// percentile is the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it, so
// exactly n - ceil(p·n/100) samples lie beyond it.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := (p*len(sorted)+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// median of an unsorted sample (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// latencySummary is the percentile report of one latency sample.
type latencySummary struct {
	N       int
	P50     float64
	TailPct int
	Tail    float64
}

func summarize(lat []float64) latencySummary {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	p := tailPercentile(len(s))
	return latencySummary{N: len(s), P50: percentile(s, 50), TailPct: p, Tail: percentile(s, p)}
}

// clock is the open-loop generator's time source; tests substitute a
// virtual one so stalls are exact.
type clock interface {
	Now() time.Time
	SleepUntil(ctx context.Context, t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-ctx.Done():
	}
}

// opRecord is one open-loop request: when it was due, when the
// generator actually started it, and when it finished. Missed marks a
// request the generator never started before the phase's deadline; it
// counts as failed and as missing every latency limit.
type opRecord struct {
	Due, Start, End time.Time
	Err             error
	Missed          bool
}

// Latency is counted from the due time, so a stall charges every
// request queued behind it.
func (r opRecord) Latency() time.Duration { return r.End.Sub(r.Due) }

// Lag is how late the generator started the request.
func (r opRecord) Lag() time.Duration { return r.Start.Sub(r.Due) }

// openLoop issues n requests due at start + i/rate over at most conns
// concurrent connections; request i is handed to do(ctx, conn, i). A request
// not started by stopBy is recorded as missed instead of sent, which
// bounds how long an overloaded phase can run on.
func openLoop(ctx context.Context, clk clock, start time.Time, rate float64, n, conns int,
	stopBy time.Time, do func(ctx context.Context, conn, i int) error) []opRecord {
	recs := make([]opRecord, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				recs[i].Due = due
				clk.SleepUntil(ctx, due)
				now := clk.Now()
				if ctx.Err() != nil || now.After(stopBy) {
					recs[i].Start, recs[i].End, recs[i].Missed = now, now, true
					continue
				}
				recs[i].Start = now
				recs[i].Err = do(ctx, conn, i)
				recs[i].End = clk.Now()
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// loadReport condenses one open-loop phase.
type loadReport struct {
	Latency    latencySummary
	LagP90Ms   float64
	BacklogMax int
	Failed     int
}

// analyze condenses one phase, counting failed and missed requests
// as infinitely late.
func analyze(recs []opRecord) loadReport {
	var rep loadReport
	lat := make([]float64, 0, len(recs))
	lags := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.Err != nil || r.Missed {
			rep.Failed++
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, ms(r.Latency()))
		}
		lags = append(lags, ms(r.Lag()))
	}
	rep.Latency = summarize(lat)
	sort.Float64s(lags)
	rep.LagP90Ms = percentile(lags, 90)
	rep.BacklogMax = backlogMax(recs)
	return rep
}

// backlogMax is the largest number of requests left waiting, due but
// not started, at any request's start instant.
func backlogMax(recs []opRecord) int {
	dues := make([]time.Time, len(recs))
	starts := make([]time.Time, len(recs))
	for i, r := range recs {
		dues[i], starts[i] = r.Due, r.Start
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a].Before(dues[b]) })
	sort.Slice(starts, func(a, b int) bool { return starts[a].Before(starts[b]) })
	best := 0
	for k, s := range starts {
		// Requests due at or before s, minus the k started before it and
		// the one starting now.
		due := sort.Search(len(dues), func(j int) bool { return dues[j].After(s) })
		if b := due - k - 1; b > best {
			best = b
		}
	}
	return best
}

// closedLoop keeps conns requests in flight until dur has passed: each
// connection sends its next request as soon as its last one returns.
// It returns the rate of successful completions in the part of the
// window after warm (so start-up transients do not move it) with their
// latencies in ms, and the requests sent and failed over the whole
// window. A request still running at the window's end finishes but is
// not counted.
func closedLoop(ctx context.Context, clk clock, conns int, warm, dur time.Duration,
	do func(ctx context.Context, conn, i int) error) (rate float64, lat []float64, sent, failed int) {
	start := clk.Now()
	from, stop := start.Add(warm), start.Add(dur)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for ctx.Err() == nil && clk.Now().Before(stop) {
				t0 := clk.Now()
				err := do(ctx, conn, int(next.Add(1)-1))
				end := clk.Now()
				mu.Lock()
				sent++
				if err != nil {
					failed++
				} else if end.After(from) && !end.After(stop) {
					lat = append(lat, ms(end.Sub(t0)))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return float64(len(lat)) / (dur - warm).Seconds(), lat, sent, failed
}

// span is one timed interval of the traced run: a call into a layer's
// public surface, seen from outside it. Parent and Self are filled in
// by attribute; times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Self   int64  `json:"selfNs"`
}

// attribute assigns each span of one operation to the innermost span
// that contains it (the root, index 0, contains all; ids in this slice
// are positions) and computes self times. Child spans on other nodes
// carry no request id yet, so containment in time is the only link.
//
// Self time is the span's share of the instants at which it is a leaf
// of the active set: for each elementary interval between span
// boundaries, the active spans with no active child split the interval
// equally. Without concurrency this is duration minus the union of the
// children; overlapping siblings share the time they overlap, so the
// self times of an operation sum to exactly its wall time.
func attribute(sp []span) {
	if len(sp) == 0 {
		return
	}
	root := sp[0]
	for i := range sp {
		if sp[i].Start < root.Start {
			sp[i].Start = root.Start
		}
		if sp[i].End > root.End {
			sp[i].End = root.End
		}
		if sp[i].End < sp[i].Start {
			sp[i].End = sp[i].Start
		}
		sp[i].Self = 0
	}
	sp[0].Parent = -1
	dur := func(i int) int64 { return sp[i].End - sp[i].Start }
	for i := 1; i < len(sp); i++ {
		best := 0
		for j := 1; j < len(sp); j++ {
			if j == i || !contains(sp[j], sp[i]) {
				continue
			}
			// Spans are recorded when they end, so of two identical
			// intervals the later-recorded one is the outer.
			if contains(sp[i], sp[j]) && j < i {
				continue
			}
			if dur(j) < dur(best) || (dur(j) == dur(best) && j < best) {
				best = j
			}
		}
		sp[i].Parent = best
	}
	cuts := make([]int64, 0, 2*len(sp))
	for _, s := range sp {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	active := make([]bool, len(sp))
	hasActiveChild := make([]bool, len(sp))
	for c := 0; c+1 < len(cuts); c++ {
		a, b := cuts[c], cuts[c+1]
		if b == a {
			continue
		}
		for i, s := range sp {
			active[i] = s.Start <= a && s.End >= b
			hasActiveChild[i] = false
		}
		for i := 1; i < len(sp); i++ {
			if active[i] {
				hasActiveChild[sp[i].Parent] = true
			}
		}
		leaves := 0
		for i := range sp {
			if active[i] && !hasActiveChild[i] {
				leaves++
			}
		}
		for i := range sp {
			if active[i] && !hasActiveChild[i] {
				sp[i].Self += (b - a) / int64(leaves)
			}
		}
		// Integer division leaves at most leaves-1 ns per interval; give
		// it to the root so an operation's self times sum exactly.
		sp[0].Self += (b - a) % int64(leaves)
	}
}

func contains(outer, inner span) bool {
	return outer.Start <= inner.Start && inner.End <= outer.End
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
