package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/vos"
)

// sweepShape is a workload's sweep: the operators and pattern count.
// Each operation varies only the seed.
type sweepShape struct {
	arches   []string
	widths   []int
	patterns int
}

func (s sweepShape) spec(seed uint64) *vos.Spec {
	return vos.NewSpec().Arches(s.arches...).Widths(s.widths...).Patterns(s.patterns).Seed(seed)
}

// request is the engine request the spec becomes, for the traced
// replays that call the engine directly.
func (s sweepShape) request(seed uint64) engine.Request {
	return engine.Request{Arches: s.arches, Widths: s.widths, Patterns: s.patterns, Seed: seed}
}

// points is the number of operating points one sweep characterizes
// (43 Table III triads per operator).
func (s sweepShape) points() int { return 43 * len(s.arches) * len(s.widths) }

// normalized strips how each point was served, the only field that may
// legitimately differ between a cached and a simulated result.
func normalized(res *vos.Result) []vos.Operator {
	out := make([]vos.Operator, len(res.Operators))
	for i, op := range res.Operators {
		out[i] = op
		out[i].Points = append([]vos.Point(nil), op.Points...)
		for j := range out[i].Points {
			out[i].Points[j].FromCache = false
		}
	}
	return out
}

func sameResult(got, want *vos.Result) bool {
	return got != nil && want != nil && reflect.DeepEqual(normalized(got), normalized(want))
}

// digest is a content hash of a result's normalized operators.
func digest(res *vos.Result) (string, error) {
	data, err := json.Marshal(normalized(res))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkSweep applies the exact invariants of a Table III sweep: 43
// points per operator and BER exactly 0 at each operator's nominal
// triad.
func checkSweep(res *vos.Result, s sweepShape) error {
	if len(res.Operators) != len(s.arches)*len(s.widths) {
		return fmt.Errorf("%d operators, want %d", len(res.Operators), len(s.arches)*len(s.widths))
	}
	for _, op := range res.Operators {
		if len(op.Points) != 43 {
			return fmt.Errorf("%s: %d points, want 43", op.Bench, len(op.Points))
		}
		if n := op.Nominal(); n == nil || n.BER != 0 {
			return fmt.Errorf("%s: non-zero BER at the nominal triad", op.Bench)
		}
	}
	return nil
}

// timedBackend is the engine cache backend of the traced replays: it
// times every Get and Put of the store it wraps.
type timedBackend struct {
	inner                    engine.CacheBackend
	getNs, gets, putNs, puts atomic.Int64
}

func (b *timedBackend) Get(ctx context.Context, key string) ([]byte, bool) {
	t0 := time.Now()
	v, ok := b.inner.Get(ctx, key)
	b.getNs.Add(int64(time.Since(t0)))
	b.gets.Add(1)
	return v, ok
}

func (b *timedBackend) Put(key string, data []byte) {
	t0 := time.Now()
	b.inner.Put(key, data)
	b.putNs.Add(int64(time.Since(t0)))
	b.puts.Add(1)
}

func (b *timedBackend) Stats() engine.CacheStats { return b.inner.Stats() }

func (b *timedBackend) getUs() float64 { return perCallUs(b.getNs.Load(), b.gets.Load()) }
func (b *timedBackend) putUs() float64 { return perCallUs(b.putNs.Load(), b.puts.Load()) }

func perCallUs(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// engineRun is what one sweep looked like from the engine's surface.
type engineRun struct {
	firstEventMs float64
	events       int
	hits, total  int
	executions   uint64
	grouped      uint64
}

// runEngine submits one request to eng and follows it through
// Engine.Subscribe to its terminal event.
func runEngine(ctx context.Context, eng *engine.Engine, req engine.Request) (engineRun, error) {
	var r engineRun
	st0 := eng.CacheStats()
	exec0 := eng.Executions()
	t0 := time.Now()
	id, err := eng.Submit(req)
	if err != nil {
		return r, err
	}
	ch, cancel, ok := eng.Subscribe(id)
	if !ok {
		return r, fmt.Errorf("engine: sweep %s vanished", id)
	}
	for ev := range ch {
		r.events++
		if r.firstEventMs == 0 && ev.Type == engine.EventPoint {
			r.firstEventMs = ms(time.Since(t0))
		}
		if ev.Type != engine.EventPoint && ev.Type != engine.EventProgress {
			break
		}
	}
	cancel()
	sw, err := eng.Wait(ctx, id)
	if err != nil {
		return r, err
	}
	if sw.Status != engine.StatusDone {
		return r, fmt.Errorf("engine: sweep %s ended %s: %s", id, sw.Status, sw.Error)
	}
	r.hits, r.total = sw.Progress.CacheHits, sw.Progress.TotalPoints
	r.executions = eng.Executions() - exec0
	r.grouped = eng.CacheStats().GroupedPoints - st0.GroupedPoints
	return r, nil
}

// engineReplay replays requests on a fresh engine over backend and
// reports the engine-layer metrics: plan time (re-planning a finished
// request, so synthesis is memoized), time to the first point event,
// events, cache hits, executions and grouping per sweep, and cache
// Get/Put times.
func engineReplay(ctx context.Context, backend *timedBackend, reqs []engine.Request, o *outcome, tier string) error {
	eng, err := engine.New(engine.Options{Backend: backend})
	if err != nil {
		return err
	}
	defer eng.Close()
	var first, planMs []float64
	var events, hits, total int
	var execs, grouped uint64
	for _, req := range reqs {
		r, err := runEngine(ctx, eng, req)
		if err != nil {
			return err
		}
		first = append(first, r.firstEventMs)
		events += r.events
		hits += r.hits
		total += r.total
		execs += r.executions
		grouped += r.grouped
		t0 := time.Now()
		if _, err := eng.Plan(ctx, &req); err != nil {
			return err
		}
		planMs = append(planMs, ms(time.Since(t0)))
	}
	n := float64(len(reqs))
	o.metrics["engine.plan_ms"] = median(planMs)
	o.metrics["engine.first_event_ms"] = median(first)
	o.metrics["engine.events_per_op"] = float64(events) / n
	if backend.gets.Load() > 0 {
		o.metrics["engine.cache_get_us."+tier] = backend.getUs()
	}
	if backend.puts.Load() > 0 {
		o.metrics["engine.cache_put_us."+tier] = backend.putUs()
	}
	if execs > 0 {
		o.metrics["engine.grouped_ratio"] = float64(grouped) / float64(execs)
	}
	o.note("engine replay (%s cache): %d sweeps, %d/%d points from cache, %d executions, %d gets, %d puts",
		tier, len(reqs), hits, total, execs, backend.gets.Load(), backend.puts.Load())
	return nil
}

// localOverhead is what vos.Local adds over the engine it wraps for
// the same finished sweep: Local.Wait+Results against Engine.Wait+Get,
// the cost of converting engine types to SDK types.
func localOverhead(ctx context.Context, l *vos.Local, s sweepShape, seed uint64) (float64, error) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	lid, err := l.Submit(ctx, s.spec(seed))
	if err != nil {
		return 0, err
	}
	eid, err := eng.Submit(s.request(seed))
	if err != nil {
		return 0, err
	}
	if _, err := l.Wait(ctx, lid); err != nil {
		return 0, err
	}
	if _, err := eng.Wait(ctx, eid); err != nil {
		return 0, err
	}
	return medianGap(
		func() error {
			if _, err := l.Wait(ctx, lid); err != nil {
				return err
			}
			_, err := l.Results(ctx, lid)
			return err
		},
		func() error {
			if _, err := eng.Wait(ctx, eid); err != nil {
				return err
			}
			if _, ok := eng.Get(eid); !ok {
				return fmt.Errorf("engine: sweep %s vanished", eid)
			}
			return nil
		})
}

// medianGap times a and b alternately, 21 times each, and returns the
// difference of their median times in milliseconds.
func medianGap(a, b func() error) (float64, error) {
	var ta, tb []float64
	for i := 0; i < 21; i++ {
		for _, c := range []struct {
			f   func() error
			out *[]float64
		}{{a, &ta}, {b, &tb}} {
			t0 := time.Now()
			if err := c.f(); err != nil {
				return 0, err
			}
			*c.out = append(*c.out, ms(time.Since(t0)))
		}
	}
	return median(ta) - median(tb), nil
}
