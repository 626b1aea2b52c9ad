package engine

// Monte Carlo jobs: application kernels (internal/apps) run at
// million-sample scale on the calibrated model backend, one job per
// (kernel × operating point) grid. The expensive part — gate-level
// simulation — happens only during calibration (once per operating
// point, memoized); every sample after that goes through the trained
// P(C | Cthmax) table, which is what makes N ≥ 1e6 per point tractable.
//
// Work is cut into reps: one rep is a self-contained kernel run on a
// deterministically seeded input instance (apps.MCKernel.RepSize
// samples). Rep seeds derive from (job seed, kernel, triad, rep index)
// only — never from shard boundaries — so any contiguous rep range can
// be computed on any node and merged back in rep order with
// byte-identical results.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/triad"
)

// MCRequest describes one Monte Carlo job.
type MCRequest struct {
	// Kernels are apps.MCKernels catalog names ("fir", "blur", "sobel",
	// "kmeans"); at least one is required.
	Kernels []string `json:"kernels"`
	// Arch is the adder architecture (default "RCA"). The operand width
	// is fixed at the application word width (apps.Word).
	Arch string `json:"arch,omitempty"`
	// Patterns is the per-point stimulus budget of the underlying model
	// sweep configuration (default 2000). It does not change Monte Carlo
	// results — calibration budgets come from the model recipe — but is
	// part of the operator configuration the job runs under.
	Patterns int `json:"patterns,omitempty"`
	// Seed drives every deterministic stream of the job; default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Samples is the per-(kernel, point) sample budget, rounded up to
	// whole reps; default 1e6.
	Samples int64 `json:"samples,omitempty"`
	// Policy selects the operating points: PolicyPaper (default) sweeps
	// the operator's Table III triad set, PolicyExplicit exactly Triads.
	Policy string        `json:"policy,omitempty"`
	Triads []triad.Triad `json:"triads,omitempty"`
	// RepLo/RepHi restrict every point to the rep range [RepLo, RepHi) —
	// the shape cluster shard sub-jobs take. Range jobs always run on
	// the node that received them (they are never re-sharded), which is
	// what terminates shard recursion. Both zero means the full range.
	RepLo int `json:"repLo,omitempty"`
	RepHi int `json:"repHi,omitempty"`
	// LeaseSec, when positive, makes the job coordinator-leased — see
	// Request.LeaseSec; cluster rep-range sub-jobs set it.
	LeaseSec int `json:"leaseSec,omitempty"`
}

// defaultMCSamples is the per-point sample budget when the request
// leaves it zero — the paper-scale "million samples per operating
// point".
const defaultMCSamples = 1_000_000

// maxMCSamples bounds a single request; beyond this the per-point rep
// metric arrays stop being a sane payload.
const maxMCSamples = int64(1) << 32

// Validate checks the request without mutating it: defaults are applied
// to a scratch copy and only the error is kept.
func (r MCRequest) Validate() error { return (&r).normalize() }

// normalize validates the request and fills defaults in place.
func (r *MCRequest) normalize() error {
	if len(r.Kernels) == 0 {
		return fmt.Errorf("engine: mc request needs at least one kernel")
	}
	seen := make(map[string]bool)
	for _, k := range r.Kernels {
		if _, ok := apps.MCKernelByName(k); !ok {
			return fmt.Errorf("engine: unknown mc kernel %q", k)
		}
		if seen[k] {
			return fmt.Errorf("engine: duplicate mc kernel %q", k)
		}
		seen[k] = true
	}
	if r.Arch == "" {
		r.Arch = "RCA"
	}
	if _, err := archByName(r.Arch); err != nil {
		return err
	}
	if r.Patterns == 0 {
		r.Patterns = 2000
	}
	if r.Patterns < 1 {
		return fmt.Errorf("engine: patterns %d < 1", r.Patterns)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Samples == 0 {
		r.Samples = defaultMCSamples
	}
	if r.Samples < 1 || r.Samples > maxMCSamples {
		return fmt.Errorf("engine: mc samples %d outside [1, %d]", r.Samples, maxMCSamples)
	}
	switch r.Policy {
	case "":
		r.Policy = PolicyPaper
	case PolicyPaper:
	case PolicyExplicit:
		if len(r.Triads) == 0 {
			return fmt.Errorf("engine: explicit mc policy needs triads")
		}
	default:
		return fmt.Errorf("engine: unsupported mc triad policy %q", r.Policy)
	}
	if r.Policy != PolicyExplicit && len(r.Triads) > 0 {
		return fmt.Errorf("engine: triads given but policy is %q", r.Policy)
	}
	for _, tr := range r.Triads {
		if err := tr.Validate(); err != nil {
			return err
		}
	}
	if r.RepLo < 0 || r.RepHi < 0 || (r.RepHi > 0 && r.RepLo >= r.RepHi) {
		return fmt.Errorf("engine: mc rep range [%d, %d) invalid", r.RepLo, r.RepHi)
	}
	if r.RepHi == 0 && r.RepLo != 0 {
		return fmt.Errorf("engine: mc rep range open at %d", r.RepLo)
	}
	if r.LeaseSec < 0 {
		return fmt.Errorf("engine: negative lease %d", r.LeaseSec)
	}
	return nil
}

// MCReps returns the whole-rep count a sample budget rounds up to for
// one kernel.
func MCReps(samples int64, k apps.MCKernel) int {
	return int((samples + int64(k.RepSize) - 1) / int64(k.RepSize))
}

// MCPoint is the serializable per-(kernel, operating point) outcome.
type MCPoint struct {
	Kernel string      `json:"kernel"`
	Metric string      `json:"metric"`
	Triad  triad.Triad `json:"triad"`
	// Samples is the number of input samples actually processed
	// (Reps × the kernel's rep size — the budget rounded up to whole
	// reps).
	Samples int64 `json:"samples"`
	// Reps is the rep count behind this point; RepLo/RepHi are set only
	// on shard partials, where Reps covers just the partial's range.
	Reps  int `json:"reps"`
	RepLo int `json:"repLo,omitempty"`
	RepHi int `json:"repHi,omitempty"`
	// Mean/Min/Max summarize RepMetrics, the per-rep quality series in
	// rep order (the kernel's Metric: SNR or PSNR in dB, RMSE in output
	// units). The mean is folded over the series in rep order, so a
	// merged distributed run reproduces a local run bit-for-bit.
	Mean       float64   `json:"mean"`
	Min        float64   `json:"min"`
	Max        float64   `json:"max"`
	RepMetrics []float64 `json:"repMetrics"`
	// ErrHist is the output-error magnitude histogram (apps.MCHistBins
	// bins: bin 0 exact, bin i errors of bit-length i); Outputs and
	// ErrorOutputs the totals behind ErrorRate.
	ErrHist      []uint64 `json:"errHist"`
	Outputs      int64    `json:"outputs"`
	ErrorOutputs int64    `json:"errorOutputs"`
	ErrorRate    float64  `json:"errorRate"`
	// EnergyPerOpFJ is the oracle-measured per-add energy of the
	// operating point (from calibration); Fidelity the point's model
	// cross-validation report.
	EnergyPerOpFJ float64        `json:"energyPerOpFJ"`
	Fidelity      *core.Fidelity `json:"fidelity,omitempty"`
}

// MCJob is the public snapshot of a submitted Monte Carlo job.
type MCJob struct {
	ID       string    `json:"id"`
	Request  MCRequest `json:"request"`
	Status   Status    `json:"status"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Progress counts (kernel × point) cells; CacheHits is always zero
	// (Monte Carlo reps are recomputed, not cached).
	Progress Progress `json:"progress"`
	// Points is populated once Status is done, kernel-major in request
	// order, triads in grid order.
	Points []MCPoint `json:"points,omitempty"`
}

// MCEvent is one entry of a job's event stream — the wire type of the
// daemon's GET /v1/mc/{id}/events NDJSON stream.
type MCEvent struct {
	Type     string   `json:"type"`
	JobID    string   `json:"jobId"`
	Status   Status   `json:"status"`
	Progress Progress `json:"progress"`
	// Point is the completed cell's summary (point events only).
	Point *MCPoint `json:"point,omitempty"`
	// Error carries the failure reason of a failed/canceled terminal
	// event.
	Error string `json:"error,omitempty"`
}

// MCSharder distributes one Monte Carlo point's rep range across a
// cluster. The engine offers every full-range point of a clustered
// job; the implementation splits [0, reps) into contiguous ranges,
// dispatches them as rep-range sub-jobs to ring members (falling back
// to runLocal for its own share and for ranges whose owner fails), and
// returns the merged point. runLocal computes [lo, hi) on the local
// pool and is safe for concurrent calls.
type MCSharder interface {
	RunMCPoint(ctx context.Context, req MCRequest, kernel string, tr triad.Triad, reps int,
		runLocal func(lo, hi int) (*MCPoint, error)) (*MCPoint, error)
}

// mcState is the engine-internal mutable job record, mirroring
// sweepState (same lock discipline: mu serializes snapshot updates and
// event publication).
type mcState struct {
	mu      sync.Mutex
	snap    MCJob
	cancel  context.CancelFunc
	done    chan struct{}
	subs    map[*mcSubscriber]struct{}
	history []MCEvent
	// recovered marks states rebuilt from the journal; lastTouch is the
	// lease clock (see leaseReaper). cells holds completed cell payloads
	// by cell index — prefilled from the journal on re-adoption (runMC
	// serves them without recomputation) and maintained while a
	// journaled job runs, because MC reps are not cached anywhere else
	// and compaction snapshots need them. All under mu.
	recovered bool
	lastTouch time.Time
	cells     map[int]*MCPoint
}

type mcSubscriber struct {
	ch chan MCEvent
}

func (s *mcState) update(f func(*MCJob)) {
	s.mu.Lock()
	f(&s.snap)
	s.mu.Unlock()
}

func (s *mcState) eventLocked(typ string) MCEvent {
	return MCEvent{
		Type:     typ,
		JobID:    s.snap.ID,
		Status:   s.snap.Status,
		Progress: s.snap.Progress,
		Error:    s.snap.Error,
	}
}

func (s *mcState) publishLocked(ev MCEvent) {
	s.history = append(s.history, ev)
	last := terminal(ev.Status)
	for sub := range s.subs {
		if last {
			sub.ch <- ev // reserved slot: cannot block
			close(sub.ch)
			delete(s.subs, sub)
			continue
		}
		if len(sub.ch) < cap(sub.ch)-1 {
			sub.ch <- ev
		}
	}
}

func (s *mcState) updateAndPublish(f func(*MCJob), decorate func(*MCEvent)) {
	s.mu.Lock()
	f(&s.snap)
	typ := EventProgress
	if terminal(s.snap.Status) {
		typ = terminalEventType(s.snap.Status)
	}
	ev := s.eventLocked(typ)
	if decorate != nil {
		decorate(&ev)
	}
	s.publishLocked(ev)
	s.mu.Unlock()
}

func (s *mcState) snapshot() MCJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.snap
	out.Points = append([]MCPoint(nil), s.snap.Points...)
	return out
}

// SubmitMC registers a Monte Carlo job and starts it asynchronously,
// returning its ID. During journal replay it refuses with
// ErrRecovering, after StartDrain with ErrDraining.
func (e *Engine) SubmitMC(req MCRequest) (string, error) {
	if err := req.normalize(); err != nil {
		return "", err
	}
	switch e.life.Load() {
	case lifeRecovering:
		return "", ErrRecovering
	case lifeDraining:
		return "", ErrDraining
	}
	ctx, cancel := context.WithCancel(e.ctx)
	e.sweepMu.Lock()
	if e.closed {
		e.sweepMu.Unlock()
		cancel()
		return "", ErrClosed
	}
	e.sweepWg.Add(1)
	e.mcSeq++
	id := fmt.Sprintf("mc-%06d", e.mcSeq)
	st := &mcState{
		snap:      MCJob{ID: id, Request: req, Status: StatusPending, Created: time.Now()},
		cancel:    cancel,
		done:      make(chan struct{}),
		lastTouch: time.Now(),
	}
	e.mcs[id] = st
	e.pruneMCLocked()
	e.sweepMu.Unlock()
	e.journalMCAccept(st)
	go func() {
		defer e.sweepWg.Done()
		e.runMC(ctx, st)
	}()
	return id, nil
}

// pruneMCLocked evicts the oldest finished jobs beyond the retention
// cap (shared with sweeps: maxRetainedSweeps). Running jobs and
// finished jobs with a live events subscriber are never evicted —
// matching pruneSweepsLocked. Callers hold sweepMu.
func (e *Engine) pruneMCLocked() {
	if len(e.mcs) <= maxRetainedSweeps {
		return
	}
	ids := make([]string, 0, len(e.mcs))
	for id := range e.mcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if len(e.mcs) <= maxRetainedSweeps {
			return
		}
		st := e.mcs[id]
		select {
		case <-st.done:
			st.mu.Lock()
			live := len(st.subs) > 0
			st.mu.Unlock()
			if !live {
				delete(e.mcs, id)
			}
		default:
		}
	}
}

// MCJobCount returns the number of Monte Carlo jobs ever submitted to
// this engine, including cluster rep-range sub-jobs (tests use it to
// confirm a job was actually distributed).
func (e *Engine) MCJobCount() uint64 {
	e.sweepMu.Lock()
	defer e.sweepMu.Unlock()
	return e.mcSeq
}

// GetMC returns a snapshot of the job with the given ID. A lookup
// counts as an observation for the job's coordinator lease, if any.
func (e *Engine) GetMC(id string) (MCJob, bool) {
	e.sweepMu.Lock()
	st, ok := e.mcs[id]
	e.sweepMu.Unlock()
	if !ok {
		return MCJob{}, false
	}
	st.touch()
	return st.snapshot(), true
}

// CancelMC cancels a pending or running job. Like Cancel, it returns
// ErrUnknownJob for an unknown ID and ErrAlreadyDone for a job already
// in a terminal state.
func (e *Engine) CancelMC(id string) error {
	e.sweepMu.Lock()
	st, ok := e.mcs[id]
	e.sweepMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: mc job %q", ErrUnknownJob, id)
	}
	st.mu.Lock()
	finished := terminal(st.snap.Status)
	st.mu.Unlock()
	if finished {
		return fmt.Errorf("%w: mc job %q", ErrAlreadyDone, id)
	}
	st.cancel()
	return nil
}

// WaitMC blocks until the job finishes (any terminal status) or the
// context is canceled, returning the final snapshot.
func (e *Engine) WaitMC(ctx context.Context, id string) (MCJob, error) {
	e.sweepMu.Lock()
	st, ok := e.mcs[id]
	e.sweepMu.Unlock()
	if !ok {
		return MCJob{}, fmt.Errorf("engine: unknown mc job %q", id)
	}
	st.touch()
	select {
	case <-st.done:
		return st.snapshot(), nil
	case <-ctx.Done():
		return st.snapshot(), ctx.Err()
	}
}

// SubscribeMC returns the job's event channel: a replay of every event
// published so far, then the live tail, closed after the terminal
// event. Semantics match Subscribe (sweeps) exactly.
func (e *Engine) SubscribeMC(id string) (<-chan MCEvent, func(), bool) {
	e.sweepMu.Lock()
	st, ok := e.mcs[id]
	e.sweepMu.Unlock()
	if !ok {
		return nil, nil, false
	}
	st.touch()
	st.mu.Lock()
	defer st.mu.Unlock()
	capacity := len(st.history) + (st.snap.Progress.TotalPoints - st.snap.Progress.Completed) + 8
	if capacity < eventBuffer {
		capacity = eventBuffer
	}
	sub := &mcSubscriber{ch: make(chan MCEvent, capacity)}
	if len(st.history) == 0 {
		sub.ch <- st.eventLocked(EventProgress)
	}
	for _, ev := range st.history {
		sub.ch <- ev
	}
	if terminal(st.snap.Status) {
		close(sub.ch)
		return sub.ch, func() {}, true
	}
	if st.subs == nil {
		st.subs = make(map[*mcSubscriber]struct{})
	}
	st.subs[sub] = struct{}{}
	cancel := func() {
		st.mu.Lock()
		if _, live := st.subs[sub]; live {
			delete(st.subs, sub)
			close(sub.ch)
		}
		st.mu.Unlock()
	}
	return sub.ch, cancel, true
}

// kernelSeed folds a kernel name into a job seed so each kernel of a
// job draws from an independent deterministic stream.
func kernelSeed(seed uint64, kernel string) uint64 {
	h := seed
	for _, c := range kernel {
		h = h*0x100000001b3 + uint64(c)
	}
	return h
}

// mcPointSeed is the base seed of one (kernel, triad) cell; every rep
// seed derives from it via model.RepSeed.
func mcPointSeed(req *MCRequest, kernel string, tr triad.Triad) uint64 {
	return model.PointSeed(kernelSeed(req.Seed, kernel), tr.Tclk, tr.Vdd, tr.Vbb)
}

// mcChunkReps is the rep-range granularity of local execution: one pool
// job computes up to this many reps, so a single point parallelizes
// across the pool. Chunking never changes results — partials merge in
// rep order.
const mcChunkReps = 32

// runMC executes one job: prepare the operator, expand the (kernel ×
// triad) grid, fan cells out (to the cluster when sharded, the local
// pool otherwise), fold results.
func (e *Engine) runMC(ctx context.Context, st *mcState) {
	defer close(st.done)
	defer st.cancel()

	req := st.snapshot().Request
	cfg := charz.Config{
		Arch:     mustArch(req.Arch),
		Width:    apps.Word,
		Patterns: req.Patterns,
		Seed:     req.Seed,
		Backend:  charz.BackendModel,
	}
	prep, err := e.Prepare(ctx, cfg)
	if err != nil {
		e.finishMC(st, err)
		return
	}
	trs := req.Triads
	if req.Policy != PolicyExplicit {
		trs = prep.TriadSet()
	}
	type cell struct {
		kernel apps.MCKernel
		tr     triad.Triad
	}
	cells := make([]cell, 0, len(req.Kernels)*len(trs))
	for _, kn := range req.Kernels {
		k, _ := apps.MCKernelByName(kn)
		for _, tr := range trs {
			cells = append(cells, cell{kernel: k, tr: tr})
		}
	}
	st.updateAndPublish(func(j *MCJob) {
		j.Status = StatusRunning
		j.Started = time.Now()
		j.Progress.TotalPoints = len(cells)
	}, nil)

	points := make([]MCPoint, len(cells))
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			st.cancel()
		}
		errMu.Unlock()
	}
	sharder, _ := e.sharder.(MCSharder)
	for ci := range cells {
		c := cells[ci]
		wg.Add(1)
		go func(ci int, c cell) {
			defer wg.Done()
			// A cell already journaled by a previous incarnation of this
			// job (crash recovery) is served from the replayed payload —
			// reps are recomputed nowhere.
			st.mu.Lock()
			cached := st.cells[ci]
			st.mu.Unlock()
			if cached != nil {
				pt := *cached
				points[ci] = pt
				st.updateAndPublish(func(j *MCJob) {
					j.Progress.Completed++
					j.Progress.CacheHits++
				}, func(ev *MCEvent) {
					ev.Type = EventPoint
					p := pt
					ev.Point = &p
				})
				return
			}
			reps := MCReps(req.Samples, c.kernel)
			runLocal := func(lo, hi int) (*MCPoint, error) {
				return e.runMCRange(ctx, prep, &req, c.kernel, c.tr, lo, hi)
			}
			var pt *MCPoint
			var err error
			if sharder != nil && req.RepHi == 0 {
				pt, err = sharder.RunMCPoint(ctx, req, c.kernel.Name, c.tr, reps, runLocal)
			} else {
				lo, hi := 0, reps
				if req.RepHi > 0 {
					lo, hi = req.RepLo, req.RepHi
					if hi > reps {
						hi = reps
					}
					if lo >= hi {
						err = fmt.Errorf("engine: mc rep range [%d, %d) outside [0, %d)", req.RepLo, req.RepHi, reps)
					}
				}
				if err == nil {
					pt, err = runLocal(lo, hi)
				}
			}
			if err != nil {
				fail(err)
				return
			}
			points[ci] = *pt
			if e.journal != nil {
				st.mu.Lock()
				if st.cells == nil {
					st.cells = make(map[int]*MCPoint)
				}
				cp := *pt
				st.cells[ci] = &cp
				st.mu.Unlock()
				e.journalMCPoint(st.snap.ID, ci, pt)
			}
			st.updateAndPublish(func(j *MCJob) {
				j.Progress.Completed++
				j.Progress.Executed++
			}, func(ev *MCEvent) {
				ev.Type = EventPoint
				p := *pt
				ev.Point = &p
			})
		}(ci, c)
	}
	wg.Wait()
	if firstErr != nil {
		e.finishMC(st, firstErr)
		return
	}
	st.update(func(j *MCJob) { j.Points = points })
	e.finishMC(st, nil)
}

// mustArch resolves a pre-validated architecture name.
func mustArch(name string) synth.Arch {
	a, err := archByName(name)
	if err != nil {
		panic("engine: mc arch revalidation: " + err.Error())
	}
	return a
}

// runMCRange computes the rep range [lo, hi) of one cell on the local
// pool: calibrate (memoized), then fan the reps out in fixed chunks and
// merge the partials in rep order.
func (e *Engine) runMCRange(ctx context.Context, prep *charz.Prepared, req *MCRequest,
	k apps.MCKernel, tr triad.Triad, lo, hi int) (*MCPoint, error) {
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("engine: mc rep range [%d, %d) invalid", lo, hi)
	}
	base := mcPointSeed(req, k.Name, tr)
	type chunk struct {
		lo, hi int
		part   *MCPoint
		err    error
	}
	var chunks []*chunk
	for at := lo; at < hi; at += mcChunkReps {
		end := at + mcChunkReps
		if end > hi {
			end = hi
		}
		chunks = append(chunks, &chunk{lo: at, hi: end})
	}
	var wg sync.WaitGroup
	for _, ch := range chunks {
		wg.Add(1)
		go func(ch *chunk) {
			defer wg.Done()
			err := e.exec(ctx, func() {
				ch.part, ch.err = e.mcChunk(prep, req, k, tr, base, ch.lo, ch.hi)
			})
			if err != nil {
				ch.err = err
			}
		}(ch)
	}
	wg.Wait()
	parts := make([]*MCPoint, len(chunks))
	for i, ch := range chunks {
		if ch.err != nil {
			return nil, ch.err
		}
		parts[i] = ch.part
	}
	pt := MergeMCPartials(parts)
	if pt == nil {
		return nil, fmt.Errorf("engine: mc range [%d, %d) produced no partials", lo, hi)
	}
	return pt, nil
}

// mcChunk runs reps [lo, hi) of one cell on the calling goroutine (a
// pool worker).
func (e *Engine) mcChunk(prep *charz.Prepared, req *MCRequest, k apps.MCKernel,
	tr triad.Triad, base uint64, lo, hi int) (*MCPoint, error) {
	trained, err := e.calib.Point(prep, tr)
	if err != nil {
		return nil, err
	}
	pt := &MCPoint{
		Kernel:        k.Name,
		Metric:        k.Metric,
		Triad:         tr,
		Samples:       int64(hi-lo) * int64(k.RepSize),
		Reps:          hi - lo,
		RepLo:         lo,
		RepHi:         hi,
		RepMetrics:    make([]float64, 0, hi-lo),
		ErrHist:       make([]uint64, apps.MCHistBins),
		EnergyPerOpFJ: trained.EnergyPerOpFJ,
	}
	fid := trained.Fidelity
	pt.Fidelity = &fid
	// One adder and one runner serve the whole chunk: reseeding the
	// adder per rep draws exactly what a fresh NewApproxAdder would.
	approx, err := core.NewApproxAdder(trained.Model, 0)
	if err != nil {
		return nil, err
	}
	ar, err := apps.NewArith(approx)
	if err != nil {
		return nil, err
	}
	run := k.Runner()
	for rep := lo; rep < hi; rep++ {
		seed := model.RepSeed(base, rep)
		approx.Reseed(seed)
		res, err := run.Run(seed, ar)
		if err != nil {
			return nil, err
		}
		pt.RepMetrics = append(pt.RepMetrics, res.Metric)
		for i, n := range res.Hist {
			pt.ErrHist[i] += n
		}
		pt.Outputs += res.Outputs
		pt.ErrorOutputs += res.Errors
	}
	finalizeMCPoint(pt)
	e.mcRepsExecuted.Add(uint64(hi - lo))
	return pt, nil
}

// finalizeMCPoint recomputes the derived fields (Mean/Min/Max,
// ErrorRate) from the raw series. The mean folds RepMetrics in rep
// order, so any partition of the same rep range finalizes to identical
// bytes after merging.
func finalizeMCPoint(pt *MCPoint) {
	if len(pt.RepMetrics) == 0 {
		return
	}
	sum := 0.0
	min, max := pt.RepMetrics[0], pt.RepMetrics[0]
	for _, m := range pt.RepMetrics {
		sum += m
		if m < min {
			min = m
		}
		if m > max {
			max = m
		}
	}
	pt.Mean = sum / float64(len(pt.RepMetrics))
	pt.Min, pt.Max = min, max
	if pt.Outputs > 0 {
		pt.ErrorRate = float64(pt.ErrorOutputs) / float64(pt.Outputs)
	}
}

// MergeMCPartials merges rep-range partials of one cell into one point
// covering their union. Partials are sorted by RepLo and must tile a
// contiguous range; the merged point's derived fields are recomputed
// from the concatenated series, so the result is byte-identical no
// matter how the range was cut (local chunks, cluster shards, or no
// split at all). A full-range merge (starting at rep 0) drops the
// RepLo/RepHi markers. Returns nil for no partials.
func MergeMCPartials(parts []*MCPoint) *MCPoint {
	if len(parts) == 0 {
		return nil
	}
	sorted := append([]*MCPoint(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RepLo < sorted[j].RepLo })
	first := sorted[0]
	out := &MCPoint{
		Kernel:        first.Kernel,
		Metric:        first.Metric,
		Triad:         first.Triad,
		RepLo:         first.RepLo,
		ErrHist:       make([]uint64, len(first.ErrHist)),
		EnergyPerOpFJ: first.EnergyPerOpFJ,
	}
	if first.Fidelity != nil {
		fid := *first.Fidelity
		out.Fidelity = &fid
	}
	for _, p := range sorted {
		out.RepMetrics = append(out.RepMetrics, p.RepMetrics...)
		for i, n := range p.ErrHist {
			out.ErrHist[i] += n
		}
		out.Outputs += p.Outputs
		out.ErrorOutputs += p.ErrorOutputs
		out.Samples += p.Samples
		out.Reps += p.Reps
		out.RepHi = p.RepHi
	}
	finalizeMCPoint(out)
	if out.RepLo == 0 {
		out.RepLo, out.RepHi = 0, 0
	}
	return out
}

// finishMC finalizes the job snapshot and publishes the terminal event.
// Status derivation matches finishSweep: the first error decides between
// failed and canceled, with engine shutdown counting as cancellation.
func (e *Engine) finishMC(st *mcState, err error) {
	st.updateAndPublish(func(j *MCJob) {
		j.Finished = time.Now()
		switch {
		case err == nil:
			j.Status = StatusDone
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrClosed):
			j.Status = StatusCanceled
			j.Error = err.Error()
		default:
			j.Status = StatusFailed
			j.Error = err.Error()
		}
	}, nil)
	// Persist the terminal state — unless the cancellation is the engine
	// shutting down, in which case the journal entry stays unfinished and
	// the next boot resumes the job (recover.go).
	e.journalMCEnd(st)
}
