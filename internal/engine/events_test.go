package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/triad"
)

// liveSweep registers a bare running sweep state the test publishes
// into directly.
func liveSweep(t *testing.T, e *Engine, id string) *sweepState {
	t.Helper()
	st := &sweepState{
		snap:   Sweep{ID: id, Status: StatusRunning},
		cancel: func() {},
		done:   make(chan struct{}),
	}
	e.sweepMu.Lock()
	e.sweeps[id] = st
	e.sweepMu.Unlock()
	return st
}

func publishPoint(st *sweepState) {
	st.updateAndPublish(func(s *Sweep) { s.Progress.Completed++ },
		func(ev *SweepEvent) { ev.Type = EventPoint })
}

// TestSubscribeStalledReaderGetsEveryEvent: a subscriber that stops
// draining while far more events are published than any fixed channel
// could hold — more than the 4096-slot floor the old per-subscriber
// buffers had — still receives every event, in order, once it drains.
func TestSubscribeStalledReaderGetsEveryEvent(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	st := liveSweep(t, e, "s-stall")
	ch, cancel, ok := e.Subscribe("s-stall")
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()

	const points = 5000
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < points; i++ {
			publishPoint(st)
		}
		st.updateAndPublish(func(s *Sweep) { s.Status = StatusDone }, nil)
	}()
	<-published // the reader has not drained a single event yet

	first, ok := <-ch
	if !ok || first.Type != EventProgress || first.Progress.Completed != 0 {
		t.Fatalf("stream did not open with the snapshot event: %+v", first)
	}
	n := 0
	var last SweepEvent
	for ev := range ch {
		if ev.Type == EventPoint {
			n++
			if ev.Progress.Completed != n {
				t.Fatalf("point event %d carries Completed=%d: out of order or dropped", n, ev.Progress.Completed)
			}
		}
		last = ev
	}
	if n != points || last.Type != EventDone {
		t.Fatalf("drained %d of %d point events, last event %q", n, points, last.Type)
	}
	st.mu.Lock()
	live := len(st.events.subs)
	st.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d subscriptions still registered after the terminal event", live)
	}
}

// TestSubscribeConcurrentReaders: subscribers attaching at different
// points of a live stream, some reading slowly, each receive the whole
// history and tail in order while the publisher runs.
func TestSubscribeConcurrentReaders(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	st := liveSweep(t, e, "s-many")
	const points, readers = 2000, 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	attach := func(slow bool) {
		ch, cancel, ok := e.Subscribe("s-many")
		if !ok {
			errs <- fmt.Errorf("subscribe failed")
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			n := 0
			for ev := range ch {
				if ev.Type != EventPoint {
					continue
				}
				n++
				if ev.Progress.Completed != n {
					errs <- fmt.Errorf("point %d carries Completed=%d", n, ev.Progress.Completed)
					return
				}
				if slow && n%100 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			if n != points {
				errs <- fmt.Errorf("reader got %d of %d points", n, points)
			}
		}()
	}
	for i := 0; i < points; i++ {
		if i%(points/readers) == 0 {
			attach(i%2 == 0)
		}
		publishPoint(st)
	}
	st.updateAndPublish(func(s *Sweep) { s.Status = StatusDone }, nil)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSubscribeCancelIsSynchronous: cancel unregisters the subscription
// before it returns — retention pruning and lease reaping count live
// subscribers — and then closes the channel; it is idempotent.
func TestSubscribeCancelIsSynchronous(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	st := liveSweep(t, e, "s-cancel")
	ch, cancel, ok := e.Subscribe("s-cancel")
	if !ok {
		t.Fatal("subscribe failed")
	}
	st.mu.Lock()
	live := len(st.events.subs)
	st.mu.Unlock()
	if live != 1 {
		t.Fatalf("%d subscriptions registered, want 1", live)
	}
	publishPoint(st)
	cancel()
	st.mu.Lock()
	live = len(st.events.subs)
	st.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d subscriptions registered right after cancel, want 0", live)
	}
	cancel()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, open := <-ch:
			if !open {
				publishPoint(st) // publishing past a canceled cursor is harmless
				return
			}
		case <-deadline:
			t.Fatal("channel not closed after cancel")
		}
	}
}

// TestSubscribeAllocationBound pins the cost of a subscription: a
// cursor and a small channel, not a buffer sized for the whole stream
// (the old design allocated ~590 KB per subscriber).
func TestSubscribeAllocationBound(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	st := liveSweep(t, e, "s-alloc")
	for i := 0; i < 100; i++ {
		publishPoint(st)
	}
	subscribe := func() {
		_, cancel, _ := e.Subscribe("s-alloc")
		cancel()
	}
	if allocs := testing.AllocsPerRun(200, subscribe); allocs > 12 {
		t.Errorf("Subscribe allocates %.0f objects, want ≤ 12", allocs)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		subscribe()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 8<<10 {
		t.Errorf("Subscribe allocates %d B, want ≤ 8 KiB", per)
	}
}

// TestDecodeMemoHitsAreIsolated: cache hits share one decoded result
// through the memo, but each caller gets its own copy — charz writes
// Efficiency into the result it receives — and the fresh-simulation
// path leaves the memo alone.
func TestDecodeMemoHitsAreIsolated(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	ctx := context.Background()
	prep, err := e.Prepare(ctx, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := triad.Triad{Tclk: 0.5, Vdd: 0.8, Vbb: 0}
	fresh, err := e.RunPoint(ctx, prep, tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := memoSize(e); n != 0 {
		t.Fatalf("fresh simulation populated the memo (%d entries)", n)
	}
	hit1, err := e.RunPoint(ctx, prep, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := hit1.Efficiency
	hit1.Efficiency = 12.5
	hit2, err := e.RunPoint(ctx, prep, tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := memoSize(e); n != 1 {
		t.Fatalf("memo holds %d entries after two hits, want 1", n)
	}
	if hit2 == hit1 || hit2.Efficiency != want {
		t.Fatalf("a write to one hit's Efficiency leaked into the next (got %v, want %v)", hit2.Efficiency, want)
	}
	if hit2.BER() != fresh.BER() || hit2.EnergyPerOpFJ != fresh.EnergyPerOpFJ || hit2.Triad != fresh.Triad {
		t.Fatal("memoized hit differs from the simulated result")
	}
	if e.Executions() != 1 {
		t.Fatalf("%d executions, want 1", e.Executions())
	}
}

func memoSize(e *Engine) int {
	e.decodedMu.Lock()
	defer e.decodedMu.Unlock()
	return len(e.decoded)
}
