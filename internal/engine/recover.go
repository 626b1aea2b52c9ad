package engine

// Durable job fabric: the engine's write-ahead journal and its replay.
//
// When Options.JournalDir is set, every job's lifecycle is recorded as
// checksummed records in an internal/engine/journal log: the accepted
// (normalized) request, per-point completions — by content-addressed
// cache key for sweep points, by full cell payload for Monte Carlo
// cells, whose reps are not cached — and the terminal state with its
// results. On startup the engine replays the journal, re-inserts
// finished jobs (listing, results and event replay survive restarts)
// and re-adopts unfinished ones under their original IDs: a re-adopted
// sweep re-plans deterministically and its already-completed points are
// satisfied from the result cache (re-verified by key during replay),
// so only the remainder re-executes and the final results are
// byte-identical to an uninterrupted run; a re-adopted Monte Carlo job
// skips the cells whose payloads the journal carried.
//
// Two shutdown paths share one mechanism. A crash (SIGKILL, power
// loss) simply never writes terminal records; a graceful drain
// (StartDrain + Close) stops accepting work and cancels what is
// running, but the cancellation is recognized as shutdown-caused and
// its terminal record suppressed — either way the journal shows an
// accepted, unfinished job that the next boot resumes. Only a user's
// explicit Cancel persists the canceled state.
//
// Lock discipline: journal appends are never made while holding
// sweepMu or a state's mu (record payloads come from snapshots), and
// compaction serializes against appenders with journalMu so a snapshot
// can never miss a racing record. Journal write errors degrade the
// engine to non-durable serving (counted by JournalErrors) — they
// never fail a request.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine/journal"
)

// Engine lifecycle states reported by State.
const (
	// StateReady means the engine accepts submissions.
	StateReady = "ready"
	// StateRecovering means journal replay is still rebuilding the job
	// registries; submissions and job lookups are refused (the daemon
	// answers 503 + Retry-After) until replay finishes.
	StateRecovering = "recovering"
	// StateDraining means StartDrain was called: lookups keep working,
	// new submissions are refused.
	StateDraining = "draining"
)

const (
	lifeReady int32 = iota
	lifeRecovering
	lifeDraining
)

// State returns the engine lifecycle state: StateReady, StateRecovering
// or StateDraining.
func (e *Engine) State() string {
	switch e.life.Load() {
	case lifeRecovering:
		return StateRecovering
	case lifeDraining:
		return StateDraining
	default:
		return StateReady
	}
}

// StartDrain moves the engine to the draining state: Submit and
// SubmitMC refuse new work with ErrDraining while lookups, event
// streams and running jobs continue. Combined with a journal, drain
// followed by Close is the graceful half of the restart story: running
// jobs are canceled without a terminal journal record, so the next boot
// re-adopts and finishes them.
func (e *Engine) StartDrain() { e.life.Store(lifeDraining) }

// WaitReady blocks until journal replay (if any) has finished and the
// engine accepts work, or a context dies.
func (e *Engine) WaitReady(ctx context.Context) error {
	select {
	case <-e.readyCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.ctx.Done():
		return ErrClosed
	}
}

// JournalErrors returns how many journal writes failed over the
// engine's lifetime — each one a record the engine kept serving
// without durability.
func (e *Engine) JournalErrors() uint64 { return e.journalErrs.Load() }

// MCRepsExecuted returns how many Monte Carlo reps actually executed on
// this engine. The recovery tests assert it stays flat when a restarted
// job's cells are all satisfied from the journal.
func (e *Engine) MCRepsExecuted() uint64 { return e.mcRepsExecuted.Load() }

// Job kinds in JobInfo.
const (
	JobKindSweep = "sweep"
	JobKindMC    = "mc"
)

// JobInfo is one entry of the unified job listing (the daemon's
// GET /v1/jobs): both registries merged, with enough lifecycle state to
// audit what survived a restart.
type JobInfo struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	Status   Status    `json:"status"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Progress Progress  `json:"progress"`
	// Recovered marks jobs re-inserted or re-adopted from the journal by
	// this process (not carried across further restarts).
	Recovered bool `json:"recovered,omitempty"`
}

// Jobs returns every registered job of both registries, sweeps first,
// each oldest-first.
func (e *Engine) Jobs() []JobInfo {
	e.sweepMu.Lock()
	sstates := make([]*sweepState, 0, len(e.sweeps))
	for _, st := range e.sweeps {
		sstates = append(sstates, st)
	}
	mstates := make([]*mcState, 0, len(e.mcs))
	for _, st := range e.mcs {
		mstates = append(mstates, st)
	}
	e.sweepMu.Unlock()
	var out []JobInfo
	for _, st := range sstates {
		st.mu.Lock()
		out = append(out, JobInfo{
			ID: st.snap.ID, Kind: JobKindSweep, Status: st.snap.Status, Error: st.snap.Error,
			Created: st.snap.Created, Started: st.snap.Started, Finished: st.snap.Finished,
			Progress: st.snap.Progress, Recovered: st.recovered,
		})
		st.mu.Unlock()
	}
	for _, st := range mstates {
		st.mu.Lock()
		out = append(out, JobInfo{
			ID: st.snap.ID, Kind: JobKindMC, Status: st.snap.Status, Error: st.snap.Error,
			Created: st.snap.Created, Started: st.snap.Started, Finished: st.snap.Finished,
			Progress: st.snap.Progress, Recovered: st.recovered,
		})
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind == JobKindSweep
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// --- Journal records ---

// Journal record types. Replay is last-wins idempotent: duplicate
// accepts are ignored, duplicate point/cell records overwrite with
// equal payloads, duplicate terminal records keep the latest — which is
// what makes the compaction crash window (snapshot and pre-compaction
// segments both on disk) harmless.
const (
	recSweepAccept = "sweep.accept"
	recSweepPoint  = "sweep.point"
	recSweepEnd    = "sweep.end"
	recMCAccept    = "mc.accept"
	recMCPoint     = "mc.point"
	recMCEnd       = "mc.end"
)

// walRec is the one wire shape all journal records share.
type walRec struct {
	T        string    `json:"t"`
	ID       string    `json:"id"`
	Created  time.Time `json:"created,omitzero"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Req / MCReq carry the accepted (normalized) request of accept
	// records.
	Req   *Request   `json:"req,omitempty"`
	MCReq *MCRequest `json:"mcReq,omitempty"`
	// Key is a completed sweep point's content-addressed cache key.
	Key string `json:"key,omitempty"`
	// CI / Point carry a completed Monte Carlo cell: its index in the
	// job's deterministic cell order and the full payload (MC reps are
	// not cached, so the journal is their only restart-surviving copy).
	CI    int      `json:"ci,omitempty"`
	Point *MCPoint `json:"point,omitempty"`
	// Terminal state of end records; Results only on done sweeps.
	Status   Status           `json:"status,omitempty"`
	Error    string           `json:"error,omitempty"`
	Progress *Progress        `json:"progress,omitempty"`
	Results  []OperatorResult `json:"results,omitempty"`
}

// journalAppend marshals and appends one record. flush requests a
// group commit: the record is ordered on the OS immediately (so a
// process crash or kill loses nothing once Append returns) and the
// background flusher fsyncs the segment moments later, off the serving
// path — what a power cut can still lose is a trailing window of
// records, each of which replay treats as a job never accepted or never
// finished, states every client of a journaled engine must already
// handle. Callers must not hold sweepMu or any state mu. Errors degrade
// to non-durable serving.
func (e *Engine) journalAppend(rec walRec, flush bool) {
	if e.journal == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		e.journalErrs.Add(1)
		return
	}
	e.journalMu.RLock()
	err = e.journal.Append(data, false)
	e.journalMu.RUnlock()
	if err != nil {
		e.journalErrs.Add(1)
		return
	}
	if flush {
		select {
		case e.journalFlushC <- struct{}{}:
		default: // a flush is already pending; it covers this record too
		}
	}
}

// journalFlushDelay is how long the flusher lets flush requests pile up
// before the group-commit fsync, in the spirit of an appendfsync-everysec
// AOF policy. Every record is write()n inline — a process crash loses
// nothing — so the window bounds only power-loss exposure. It is sized
// generously because an fsync stalls concurrent appends to the same
// inode far longer than its own latency suggests; at this cadence the
// journal is invisible on the warm serving path.
const journalFlushDelay = 250 * time.Millisecond

// journalFlusher is the group-commit loop: it coalesces flush requests
// from journalAppend into one fsync per window, so a burst of accepts
// and terminals pays one disk sync instead of one apiece and the
// serving path never blocks on the disk. Engine.Close syncs once more
// through Journal.Close, so nothing stays unflushed past shutdown.
func (e *Engine) journalFlusher() {
	defer e.wg.Done()
	timer := time.NewTimer(journalFlushDelay)
	defer timer.Stop()
	for {
		select {
		case <-e.journalFlushC:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(journalFlushDelay)
			select {
			case <-timer.C:
			case <-e.ctx.Done():
				return
			}
			e.journalMu.RLock()
			err := e.journal.Sync()
			e.journalMu.RUnlock()
			if err != nil {
				e.journalErrs.Add(1)
			}
		case <-e.ctx.Done():
			return
		}
	}
}

func (e *Engine) journalSweepAccept(st *sweepState) {
	if e.journal == nil {
		return
	}
	snap := st.snapshot()
	e.journalAppend(walRec{T: recSweepAccept, ID: snap.ID, Created: snap.Created, Req: &snap.Request}, true)
}

func (e *Engine) journalSweepPoint(id, key string) {
	// Unsynced: losing a point record costs nothing — the point's bytes
	// live in the content-addressed cache and resumption re-serves them
	// from there.
	e.journalAppend(walRec{T: recSweepPoint, ID: id, Key: key}, false)
}

// journalSweepEnd persists a sweep's terminal state — except a
// cancellation caused by engine shutdown, which is suppressed so the
// next boot re-adopts the job (the drain/crash unification).
func (e *Engine) journalSweepEnd(st *sweepState) {
	if e.journal == nil {
		return
	}
	snap := st.snapshot()
	if snap.Status == StatusCanceled && e.ctx.Err() != nil {
		return
	}
	rec := walRec{T: recSweepEnd, ID: snap.ID, Status: snap.Status, Error: snap.Error,
		Started: snap.Started, Finished: snap.Finished, Progress: &snap.Progress}
	if snap.Status == StatusDone {
		rec.Results = snap.Results
	}
	e.journalAppend(rec, true)
	e.maybeCompact()
}

func (e *Engine) journalMCAccept(st *mcState) {
	if e.journal == nil {
		return
	}
	snap := st.snapshot()
	e.journalAppend(walRec{T: recMCAccept, ID: snap.ID, Created: snap.Created, MCReq: &snap.Request}, true)
}

func (e *Engine) journalMCPoint(id string, ci int, pt *MCPoint) {
	// Flushed: the journal is the only restart-surviving copy of an MC
	// cell, and cells are few and expensive — a group-commit fsync per
	// cell is noise next to computing one.
	e.journalAppend(walRec{T: recMCPoint, ID: id, CI: ci, Point: pt}, true)
}

func (e *Engine) journalMCEnd(st *mcState) {
	if e.journal == nil {
		return
	}
	snap := st.snapshot()
	if snap.Status == StatusCanceled && e.ctx.Err() != nil {
		return
	}
	// Points are not repeated here — the per-cell records already carry
	// them and replay reassembles Points from cell order.
	e.journalAppend(walRec{T: recMCEnd, ID: snap.ID, Status: snap.Status, Error: snap.Error,
		Started: snap.Started, Finished: snap.Finished, Progress: &snap.Progress}, true)
	e.maybeCompact()
}

// maxJournalSegments is the compaction trigger: once a terminal record
// lands with more live segments than this, the registries are
// snapshotted into a fresh segment and the old ones retired.
const maxJournalSegments = 4

func (e *Engine) maybeCompact() {
	if e.journal == nil || e.ctx.Err() != nil {
		return
	}
	if e.journal.Segments() > maxJournalSegments {
		e.compactJournal()
	}
}

// compactJournal rewrites the journal as a snapshot of the live
// registries. journalMu (writer side) excludes concurrent appends, so
// the snapshot cannot miss a racing record; the registry locks are
// taken inside it, which is safe because appenders never hold them.
func (e *Engine) compactJournal() {
	e.journalMu.Lock()
	defer e.journalMu.Unlock()
	snap, err := e.snapshotRecords()
	if err != nil {
		e.journalErrs.Add(1)
		return
	}
	if err := e.journal.Compact(snap); err != nil {
		e.journalErrs.Add(1)
	}
}

// snapshotRecords serializes the registries as replayable records.
// Unfinished sweeps keep only their accept record — their completed
// points live in the content-addressed cache, so dropping the point
// records costs at worst some cache probes on the next recovery.
// Unfinished Monte Carlo jobs keep their completed cell payloads: those
// exist nowhere else.
func (e *Engine) snapshotRecords() ([][]byte, error) {
	e.sweepMu.Lock()
	sstates := make([]*sweepState, 0, len(e.sweeps))
	for _, st := range e.sweeps {
		sstates = append(sstates, st)
	}
	mstates := make([]*mcState, 0, len(e.mcs))
	for _, st := range e.mcs {
		mstates = append(mstates, st)
	}
	e.sweepMu.Unlock()
	shuttingDown := e.ctx.Err() != nil
	var recs []walRec
	for _, st := range sstates {
		snap := st.snapshot()
		recs = append(recs, walRec{T: recSweepAccept, ID: snap.ID, Created: snap.Created, Req: &snap.Request})
		if terminal(snap.Status) && !(snap.Status == StatusCanceled && shuttingDown) {
			rec := walRec{T: recSweepEnd, ID: snap.ID, Status: snap.Status, Error: snap.Error,
				Started: snap.Started, Finished: snap.Finished, Progress: &snap.Progress}
			if snap.Status == StatusDone {
				rec.Results = snap.Results
			}
			recs = append(recs, rec)
		}
	}
	for _, st := range mstates {
		snap := st.snapshot()
		recs = append(recs, walRec{T: recMCAccept, ID: snap.ID, Created: snap.Created, MCReq: &snap.Request})
		st.mu.Lock()
		cis := make([]int, 0, len(st.cells))
		for ci := range st.cells {
			cis = append(cis, ci)
		}
		sort.Ints(cis)
		cells := make([]*MCPoint, len(cis))
		for i, ci := range cis {
			p := *st.cells[ci]
			cells[i] = &p
		}
		st.mu.Unlock()
		for i, ci := range cis {
			recs = append(recs, walRec{T: recMCPoint, ID: snap.ID, CI: ci, Point: cells[i]})
		}
		if terminal(snap.Status) && !(snap.Status == StatusCanceled && shuttingDown) {
			recs = append(recs, walRec{T: recMCEnd, ID: snap.ID, Status: snap.Status, Error: snap.Error,
				Started: snap.Started, Finished: snap.Finished, Progress: &snap.Progress})
		}
	}
	out := make([][]byte, len(recs))
	for i := range recs {
		data, err := json.Marshal(recs[i])
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// --- Replay ---

// walSweep / walMC accumulate one job's replayed records.
type walSweep struct {
	id      string
	created time.Time
	req     *Request
	keys    []string
	seen    map[string]bool
	end     *walRec
}

type walMC struct {
	id      string
	created time.Time
	req     *MCRequest
	cells   map[int]*MCPoint
	end     *walRec
}

// runRecovery replays the journal payloads into the registries, then
// flips the engine to ready. Terminal jobs are re-inserted whole;
// unfinished jobs are re-adopted under their original IDs and resumed.
// Runs once, registered on sweepWg at New time; Close interrupts it
// cleanly (re-adoption honors closed, so nothing resumes into a dying
// engine — the journal still holds the jobs for the next boot).
func (e *Engine) runRecovery(payloads [][]byte, gate func()) {
	defer e.sweepWg.Done()
	defer close(e.readyCh)
	defer e.life.CompareAndSwap(lifeRecovering, lifeReady)

	sweeps := make(map[string]*walSweep)
	mcs := make(map[string]*walMC)
	var sweepIDs, mcIDs []string
	for _, payload := range payloads {
		var rec walRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A record that framed and checksummed correctly but does not
			// parse is from a different schema era; skip it rather than
			// refuse to boot.
			e.journalErrs.Add(1)
			continue
		}
		switch rec.T {
		case recSweepAccept:
			if _, ok := sweeps[rec.ID]; !ok && rec.Req != nil {
				sweeps[rec.ID] = &walSweep{id: rec.ID, created: rec.Created, req: rec.Req, seen: make(map[string]bool)}
				sweepIDs = append(sweepIDs, rec.ID)
			}
		case recSweepPoint:
			if w, ok := sweeps[rec.ID]; ok && rec.Key != "" && !w.seen[rec.Key] {
				w.seen[rec.Key] = true
				w.keys = append(w.keys, rec.Key)
			}
		case recSweepEnd:
			if w, ok := sweeps[rec.ID]; ok {
				r := rec
				w.end = &r
			}
		case recMCAccept:
			if _, ok := mcs[rec.ID]; !ok && rec.MCReq != nil {
				mcs[rec.ID] = &walMC{id: rec.ID, created: rec.Created, req: rec.MCReq, cells: make(map[int]*MCPoint)}
				mcIDs = append(mcIDs, rec.ID)
			}
		case recMCPoint:
			if w, ok := mcs[rec.ID]; ok && rec.Point != nil {
				w.cells[rec.CI] = rec.Point
			}
		case recMCEnd:
			if w, ok := mcs[rec.ID]; ok {
				r := rec
				w.end = &r
			}
		default:
			e.journalErrs.Add(1)
		}
	}
	sort.Strings(sweepIDs)
	sort.Strings(mcIDs)

	// Restore the ID sequences before anything can submit, so new jobs
	// never collide with replayed ones.
	e.sweepMu.Lock()
	for _, id := range sweepIDs {
		var n uint64
		if _, err := fmt.Sscanf(id, "s-%06d", &n); err == nil && n > e.seq {
			e.seq = n
		}
	}
	for _, id := range mcIDs {
		var n uint64
		if _, err := fmt.Sscanf(id, "mc-%06d", &n); err == nil && n > e.mcSeq {
			e.mcSeq = n
		}
	}
	e.sweepMu.Unlock()

	for _, id := range sweepIDs {
		e.restoreSweep(sweeps[id])
	}
	for _, id := range mcIDs {
		e.restoreMC(mcs[id])
	}

	// The replayed segments (plus this boot's fresh one) are now
	// redundant with the registries: compact so journal growth is
	// bounded by live state, not by restart count.
	if e.ctx.Err() == nil {
		e.compactJournal()
	}
	if gate != nil {
		gate()
	}
}

// restoreSweep re-inserts one replayed sweep: terminal jobs with their
// full snapshot and a synthesized event history, unfinished jobs as
// re-adopted running jobs under their original ID.
func (e *Engine) restoreSweep(w *walSweep) {
	if w.end != nil {
		snap := Sweep{ID: w.id, Request: *w.req, Status: w.end.Status, Error: w.end.Error,
			Created: w.created, Started: w.end.Started, Finished: w.end.Finished}
		if w.end.Progress != nil {
			snap.Progress = *w.end.Progress
		}
		snap.Results = w.end.Results
		st := &sweepState{snap: snap, cancel: func() {}, done: make(chan struct{}), recovered: true}
		close(st.done)
		st.events.history = synthesizeSweepHistory(&st.snap)
		e.sweepMu.Lock()
		if !e.closed {
			e.sweeps[w.id] = st
			e.pruneSweepsLocked()
		}
		e.sweepMu.Unlock()
		return
	}
	// Re-verify the journaled completions against the content-addressed
	// cache: a present, decodable entry will satisfy its point without
	// re-execution when the sweep re-plans below. (A missing or corrupt
	// entry just re-executes — correctness never depends on the cache.)
	for _, key := range w.keys {
		if data, ok := e.cache.Get(e.ctx, key); ok {
			if _, err := decodePoint(data); err == nil {
				continue
			}
		}
	}
	ctx, cancel := context.WithCancel(e.ctx)
	st := &sweepState{
		snap:      Sweep{ID: w.id, Request: *w.req, Status: StatusPending, Created: w.created},
		cancel:    cancel,
		done:      make(chan struct{}),
		recovered: true,
		lastTouch: time.Now(),
	}
	e.sweepMu.Lock()
	if e.closed {
		e.sweepMu.Unlock()
		cancel()
		return
	}
	e.sweepWg.Add(1)
	e.sweeps[w.id] = st
	e.pruneSweepsLocked()
	e.sweepMu.Unlock()
	go func() {
		defer e.sweepWg.Done()
		e.runSweep(ctx, st)
	}()
}

// restoreMC mirrors restoreSweep. Terminal jobs reassemble Points from
// the journaled cells; unfinished jobs carry them as prefilled cells
// that runMC serves without recomputation.
func (e *Engine) restoreMC(w *walMC) {
	if w.end != nil {
		snap := MCJob{ID: w.id, Request: *w.req, Status: w.end.Status, Error: w.end.Error,
			Created: w.created, Started: w.end.Started, Finished: w.end.Finished}
		if w.end.Progress != nil {
			snap.Progress = *w.end.Progress
		}
		if snap.Status == StatusDone && len(w.cells) > 0 {
			cis := make([]int, 0, len(w.cells))
			for ci := range w.cells {
				cis = append(cis, ci)
			}
			sort.Ints(cis)
			snap.Points = make([]MCPoint, 0, len(cis))
			for _, ci := range cis {
				snap.Points = append(snap.Points, *w.cells[ci])
			}
		}
		st := &mcState{snap: snap, cancel: func() {}, done: make(chan struct{}), recovered: true, cells: w.cells}
		close(st.done)
		st.events.history = synthesizeMCHistory(&st.snap)
		e.sweepMu.Lock()
		if !e.closed {
			e.mcs[w.id] = st
			e.pruneMCLocked()
		}
		e.sweepMu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(e.ctx)
	st := &mcState{
		snap:      MCJob{ID: w.id, Request: *w.req, Status: StatusPending, Created: w.created},
		cancel:    cancel,
		done:      make(chan struct{}),
		recovered: true,
		cells:     w.cells,
		lastTouch: time.Now(),
	}
	e.sweepMu.Lock()
	if e.closed {
		e.sweepMu.Unlock()
		cancel()
		return
	}
	e.sweepWg.Add(1)
	e.mcs[w.id] = st
	e.pruneMCLocked()
	e.sweepMu.Unlock()
	go func() {
		defer e.sweepWg.Done()
		e.runMC(ctx, st)
	}()
}

// synthesizeSweepHistory rebuilds a terminal sweep's replayable event
// stream from its snapshot, preserving the Subscribe invariant that a
// late subscriber sees at least one point event per completed operator
// before the terminal event. Synthesized point events all carry the
// final progress counters — the original interleaving is gone, the
// per-point payloads are not.
func synthesizeSweepHistory(s *Sweep) []SweepEvent {
	var hist []SweepEvent
	for oi := range s.Results {
		op := &s.Results[oi]
		for pi := range op.Points {
			p := op.Points[pi]
			hist = append(hist, SweepEvent{
				Type: EventPoint, SweepID: s.ID, Status: s.Status, Progress: s.Progress,
				Bench: op.Bench, Arch: op.Arch, Width: op.Width, Point: &p,
			})
		}
	}
	hist = append(hist, SweepEvent{
		Type: terminalEventType(s.Status), SweepID: s.ID, Status: s.Status,
		Progress: s.Progress, Error: s.Error,
	})
	return hist
}

// synthesizeMCHistory mirrors synthesizeSweepHistory for Monte Carlo
// jobs.
func synthesizeMCHistory(j *MCJob) []MCEvent {
	var hist []MCEvent
	for i := range j.Points {
		p := j.Points[i]
		hist = append(hist, MCEvent{
			Type: EventPoint, JobID: j.ID, Status: j.Status, Progress: j.Progress, Point: &p,
		})
	}
	hist = append(hist, MCEvent{
		Type: terminalEventType(j.Status), JobID: j.ID, Status: j.Status,
		Progress: j.Progress, Error: j.Error,
	})
	return hist
}

// --- Coordinator leases ---

// leaseCheckInterval paces the lease reaper; a variable so tests can
// tighten it.
var leaseCheckInterval = time.Second

// leaseReaper cancels leased jobs whose coordinator stopped watching:
// a job submitted with LeaseSec > 0 must be observed — an open event
// subscription, or a Get/Wait/Status touch — at least once per lease
// window, or it is canceled and garbage-collected like any canceled
// job. This is how shard peers shed explicit sub-sweeps orphaned by a
// dead coordinator without any cluster-wide death gossip.
func (e *Engine) leaseReaper() {
	defer e.wg.Done()
	t := time.NewTicker(leaseCheckInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.reapLeases(time.Now())
		case <-e.ctx.Done():
			return
		}
	}
}

func (e *Engine) reapLeases(now time.Time) {
	e.sweepMu.Lock()
	var cancels []context.CancelFunc
	for _, st := range e.sweeps {
		st.mu.Lock()
		lease := time.Duration(st.snap.Request.LeaseSec) * time.Second
		if lease > 0 && !terminal(st.snap.Status) && len(st.events.subs) == 0 && now.Sub(st.lastTouch) > lease {
			cancels = append(cancels, st.cancel)
		}
		st.mu.Unlock()
	}
	for _, st := range e.mcs {
		st.mu.Lock()
		lease := time.Duration(st.snap.Request.LeaseSec) * time.Second
		if lease > 0 && !terminal(st.snap.Status) && len(st.events.subs) == 0 && now.Sub(st.lastTouch) > lease {
			cancels = append(cancels, st.cancel)
		}
		st.mu.Unlock()
	}
	e.sweepMu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

func (st *sweepState) touch() {
	st.mu.Lock()
	st.lastTouch = time.Now()
	st.mu.Unlock()
}

func (st *mcState) touch() {
	st.mu.Lock()
	st.lastTouch = time.Now()
	st.mu.Unlock()
}

// openJournal wires Options into the journal package.
func openJournal(opts Options) (*journal.Journal, [][]byte, error) {
	var faults journal.FaultInjector
	if opts.JournalFaults != nil {
		faults = opts.JournalFaults
	}
	return journal.Open(opts.JournalDir, journal.Options{Faults: faults})
}
