package engine

import (
	"slices"
	"sync"
)

// Job event streaming. Every sweep and Monte Carlo job records its
// events in an append-only history that lives as long as the job's
// registry entry, and every subscription is a cursor over that history:
// one goroutine per subscriber forwards history[next:] into a small
// channel, parking when it has caught up until the next publish wakes
// it. Publishing never blocks and never drops — a slow reader only
// holds its own cursor back — so every subscriber, whenever it attaches
// and however slowly it drains, sees the job's full event sequence. The
// daemon's NDJSON endpoints (internal/engine/httpapi) and the vos SDK's
// Events channels are thin adapters over this seam.

// Event types carried by SweepEvent.Type and MCEvent.Type. A stream is a
// sequence of progress/point events followed by exactly one terminal
// event (done, failed or canceled), after which the subscription
// channel is closed.
const (
	// EventProgress reports a status or progress change without a point
	// payload: the initial snapshot on subscribe and the pending→running
	// transition (which carries the planned TotalPoints).
	EventProgress = "progress"
	// EventPoint reports one completed operating point, with the point's
	// summary and the operator it belongs to.
	EventPoint = "point"
	// EventDone, EventFailed and EventCanceled are the terminal events,
	// mirroring the job's final Status.
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
)

// SweepEvent is one entry of a sweep's event stream. It is the wire type
// of the daemon's GET /v1/sweeps/{id}/events NDJSON stream, so its JSON
// shape is part of the public API (see API.md).
type SweepEvent struct {
	Type    string `json:"type"`
	SweepID string `json:"sweepId"`
	Status  Status `json:"status"`
	// Progress is the counter set as of this event.
	Progress Progress `json:"progress"`
	// Bench, Arch and Width identify the operator of a point event.
	Bench string `json:"bench,omitempty"`
	Arch  string `json:"arch,omitempty"`
	Width int    `json:"width,omitempty"`
	// Point is the completed point's summary (point events only).
	Point *PointSummary `json:"point,omitempty"`
	// Error carries the failure reason of a failed/canceled terminal
	// event.
	Error string `json:"error,omitempty"`
}

// terminal reports whether a status is a job's final state.
func terminal(s Status) bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// terminalEventType maps a final status to its event type.
func terminalEventType(s Status) string {
	switch s {
	case StatusFailed:
		return EventFailed
	case StatusCanceled:
		return EventCanceled
	default:
		return EventDone
	}
}

// jobEvent is an event type an eventLog can stream (SweepEvent,
// MCEvent).
type jobEvent interface {
	eventType() string
}

func (ev SweepEvent) eventType() string { return ev.Type }

// endsStream reports whether an event type is its stream's last. The
// test is on the type, not the event's Status: history synthesized for
// a job restored from the journal stamps the final status on every
// point event too.
func endsStream(typ string) bool {
	switch typ {
	case EventDone, EventFailed, EventCanceled:
		return true
	}
	return false
}

// subBuffer is the capacity of each subscription's channel: the events
// a cursor may run ahead of its reader. It only sets how much a reader
// can batch — the HTTP stream flushes whenever this queue runs dry —
// never whether an event is delivered.
const subBuffer = 32

// subscription is one live cursor's registration in its job's log:
// publishes signal wake (without blocking) and cancel closes stop.
type subscription struct {
	wake chan struct{}
	stop chan struct{}
}

// eventLog is a job's append-only event history and its live
// subscriptions. Every field is guarded by the owning job's lock
// (sweepState.mu, mcState.mu), which also serializes publication, so
// every subscriber sees events in snapshot order. The history keeps its
// own copy of each point (a job's result slice is mutated after the
// fact — efficiency back-fill — and snapshot-copied per Get, so sharing
// would race); it lives as long as the job's registry entry, which
// maxRetainedSweeps bounds.
type eventLog[E jobEvent] struct {
	history []E
	// subs holds every subscription whose cursor has not yet delivered
	// the terminal event or been canceled: retention pruning and lease
	// reaping count it.
	subs map[*subscription]struct{}
}

// publishLocked appends an event to the history and wakes every
// subscription. Callers hold the job's lock.
func (l *eventLog[E]) publishLocked(ev E) {
	l.history = append(l.history, ev)
	for sub := range l.subs {
		select {
		case sub.wake <- struct{}{}:
		default: // already signaled; the cursor will see this event too
		}
	}
}

// reserveLocked makes room for n more events — a job knows its event
// count once planned — so the history is not regrown as points land.
// Callers hold the job's lock.
func (l *eventLog[E]) reserveLocked(n int) {
	l.history = slices.Grow(l.history, n)
}

// subscribeLocked opens a cursor at the start of the history and
// returns its channel and cancel function. A stream whose history is
// still empty (the job is planning) opens with the given snapshot event,
// so subscribers always see the current state immediately. The channel
// is closed after the terminal event or once cancel is called; cancel
// unregisters the subscription before it returns, is idempotent and
// must be called eventually. Callers hold mu, the job's lock, which the
// cursor takes to read each new stretch of history.
func (l *eventLog[E]) subscribeLocked(mu *sync.Mutex, snapshot E) (<-chan E, func()) {
	sub := &subscription{wake: make(chan struct{}, 1), stop: make(chan struct{})}
	if l.subs == nil {
		l.subs = make(map[*subscription]struct{})
	}
	l.subs[sub] = struct{}{}
	ch := make(chan E, subBuffer)
	opening := len(l.history) == 0
	go l.forward(mu, sub, ch, opening, snapshot)
	cancel := func() {
		mu.Lock()
		if _, live := l.subs[sub]; live {
			delete(l.subs, sub)
			close(sub.stop)
		}
		mu.Unlock()
	}
	return ch, cancel
}

// forward is a subscription's cursor: it copies the history into ch
// from the start, parks on wake whenever it has caught up, and ends
// after delivering the terminal event (unregistering itself) or when
// stop closes. History entries are never rewritten once appended, so a
// stretch read under the lock can be sent without it.
func (l *eventLog[E]) forward(mu *sync.Mutex, sub *subscription, ch chan<- E, opening bool, snapshot E) {
	defer close(ch)
	if opening {
		select {
		case ch <- snapshot:
		case <-sub.stop:
			return
		}
	}
	next := 0
	for {
		mu.Lock()
		batch := l.history[next:]
		mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-sub.wake:
				continue
			case <-sub.stop:
				return
			}
		}
		for _, ev := range batch {
			select {
			case ch <- ev:
			case <-sub.stop:
				return
			}
			next++
			if endsStream(ev.eventType()) {
				mu.Lock()
				delete(l.subs, sub)
				mu.Unlock()
				return
			}
		}
	}
}

// Subscribe returns the sweep's event channel: first a replay of every
// event published so far (the per-point history is retained for the
// sweep's lifetime), then the live tail, with no event ever dropped.
// The channel is closed after the terminal event; the returned cancel
// function releases the subscription early (it is safe to call after
// the close, and must be called eventually). Because of the replay, a
// subscriber joining at any time — even after the sweep finished —
// sees every point event before the terminal event.
func (e *Engine) Subscribe(id string) (<-chan SweepEvent, func(), bool) {
	e.sweepMu.Lock()
	st, ok := e.sweeps[id]
	e.sweepMu.Unlock()
	if !ok {
		return nil, nil, false
	}
	st.touch()
	st.mu.Lock()
	defer st.mu.Unlock()
	ch, cancel := st.events.subscribeLocked(&st.mu, st.eventLocked(EventProgress))
	return ch, cancel, true
}

// eventLocked builds an event skeleton from the current snapshot.
// Callers hold st.mu.
func (st *sweepState) eventLocked(typ string) SweepEvent {
	return SweepEvent{
		Type:     typ,
		SweepID:  st.snap.ID,
		Status:   st.snap.Status,
		Progress: st.snap.Progress,
		Error:    st.snap.Error,
	}
}
