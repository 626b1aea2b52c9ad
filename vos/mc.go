package vos

// Monte Carlo jobs: the SDK surface of the daemon's /v1/mc service.
// An MCSpec describes application kernels to run at million-sample
// scale on the calibrated error-model backend; MCResult carries the
// per-(kernel, operating point) quality statistics back. Like sweeps,
// the same MCSpec yields byte-identical results through Local and
// Remote — and through a sharded cluster, whose rep-range partials
// merge deterministically.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/engine"
	"repro/internal/triad"
)

// MCSpec describes one Monte Carlo job: which application kernels to
// run, on which operator, at which operating points, and how many
// samples per point. Builder methods return the receiver:
//
//	vos.NewMCSpec("fir", "kmeans").Arch("RCA").Samples(1_000_000)
//
// The zero kernel list is invalid — a job needs at least one kernel.
type MCSpec struct {
	req engine.MCRequest
}

// NewMCSpec returns a spec running the named kernels ("fir", "blur",
// "sobel", "kmeans") with default settings: an RCA operator over its
// paper triad set, one million samples per point, seed 1.
func NewMCSpec(kernels ...string) *MCSpec {
	s := &MCSpec{}
	s.req.Kernels = append([]string(nil), kernels...)
	return s
}

// Arch selects the adder architecture ("RCA", "BKA", "KSA", "SKL",
// "CSEL"). Default: RCA. The operand width is fixed at the application
// word width.
func (s *MCSpec) Arch(name string) *MCSpec {
	s.req.Arch = name
	return s
}

// Seed drives every deterministic stream of the job; equal seeds give
// bit-identical results on any cluster shape. Default: 1.
func (s *MCSpec) Seed(seed uint64) *MCSpec {
	s.req.Seed = seed
	return s
}

// Samples sets the per-(kernel, point) sample budget, rounded up to
// whole kernel reps. Default: 1e6.
func (s *MCSpec) Samples(n int64) *MCSpec {
	s.req.Samples = n
	return s
}

// Patterns sets the stimulus budget of the underlying model sweep
// configuration (default 2000). It does not change Monte Carlo results;
// it exists so shard sub-jobs reproduce their coordinator's operator
// configuration exactly.
func (s *MCSpec) Patterns(n int) *MCSpec {
	s.req.Patterns = n
	return s
}

// RepRange restricts the job to the rep range [lo, hi) of every point —
// the shape a vosd cluster's shard sub-jobs take, which is why
// rep-range jobs always execute on the node that received them instead
// of being re-sharded. Results carry RepLo/RepHi markers and merge
// deterministically with the other ranges' partials.
func (s *MCSpec) RepRange(lo, hi int) *MCSpec {
	s.req.RepLo, s.req.RepHi = lo, hi
	return s
}

// PaperTriads selects the operator's Table III triad set (the default).
func (s *MCSpec) PaperTriads() *MCSpec {
	s.req.Policy = PolicyPaper
	s.req.Triads = nil
	return s
}

// Triads runs the job at exactly these operating points.
func (s *MCSpec) Triads(ts ...Triad) *MCSpec {
	s.req.Policy = PolicyExplicit
	s.req.Triads = make([]triad.Triad, len(ts))
	for i, t := range ts {
		s.req.Triads[i] = triad.Triad(t)
	}
	return s
}

// Lease makes the job coordinator-leased — see Spec.Lease; the same
// observation-or-cancel contract applied to Monte Carlo jobs.
func (s *MCSpec) Lease(d time.Duration) *MCSpec {
	s.req.LeaseSec = int((d + time.Second - 1) / time.Second)
	return s
}

// Validate checks the spec without running it.
func (s *MCSpec) Validate() error {
	r := s.req
	return (&r).Validate()
}

// request returns the engine-level request. The copy keeps the spec
// reusable after submission.
func (s *MCSpec) request() engine.MCRequest { return s.req }

// Fidelity is a trained error model's cross-validation report: how the
// model's error statistics compare against the gate-level oracle on a
// held-out pattern stream, and which trained table produced the result.
type Fidelity struct {
	// SNRdB is the modeled-vs-exact signal-to-noise ratio (capped at 99
	// for exact matches); DeltaBER the |model − hardware| bit-error-rate
	// gap the fidelity gate bounds.
	SNRdB       float64 `json:"snrDB"`
	DeltaBER    float64 `json:"deltaBER"`
	BERModel    float64 `json:"berModel"`
	BERHardware float64 `json:"berHardware"`
	// TrainPatterns/EvalPatterns are the calibration recipe's budgets.
	TrainPatterns int `json:"trainPatterns"`
	EvalPatterns  int `json:"evalPatterns"`
	// Fingerprint is the content hash of the trained table.
	Fingerprint string `json:"fingerprint"`
}

// MCPoint is one (kernel, operating point) cell of a Monte Carlo job.
type MCPoint struct {
	Kernel string `json:"kernel"`
	// Metric names the quality statistic of RepMetrics/Mean/Min/Max:
	// "snr" or "psnr" (dB, capped at 99 for exact outputs) or "rmse".
	Metric string `json:"metric"`
	Triad  Triad  `json:"triad"`
	// Samples is the number of input samples processed; Reps the number
	// of independent kernel repetitions they were drawn over.
	Samples int64 `json:"samples"`
	Reps    int   `json:"reps"`
	// Mean/Min/Max summarize RepMetrics, the per-rep quality series in
	// rep order.
	Mean       float64   `json:"mean"`
	Min        float64   `json:"min"`
	Max        float64   `json:"max"`
	RepMetrics []float64 `json:"repMetrics"`
	// ErrHist is the output-error magnitude histogram: bin 0 counts
	// exact outputs, bin i errors of bit-length i.
	ErrHist      []uint64 `json:"errHist"`
	Outputs      int64    `json:"outputs"`
	ErrorOutputs int64    `json:"errorOutputs"`
	ErrorRate    float64  `json:"errorRate"`
	// EnergyPerOpFJ is the operating point's oracle-measured per-add
	// energy; Fidelity the error model's cross-validation report.
	EnergyPerOpFJ float64   `json:"energyPerOpFJ"`
	Fidelity      *Fidelity `json:"fidelity,omitempty"`
}

// MCResult is a Monte Carlo job snapshot.
type MCResult struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`

	// Progress counts (kernel × operating point) cells.
	Progress Progress `json:"progress"`
	// Points is populated once Status is done, kernel-major in spec
	// order.
	Points []MCPoint `json:"points,omitempty"`
}

// Point returns the result's cell for a kernel and triad, or nil.
func (r *MCResult) Point(kernel string, tr Triad) *MCPoint {
	for i := range r.Points {
		if r.Points[i].Kernel == kernel && r.Points[i].Triad == tr {
			return &r.Points[i]
		}
	}
	return nil
}

// MCEvent is one entry of a Monte Carlo job's event stream.
type MCEvent struct {
	Type   string `json:"type"`
	JobID  string `json:"jobId"`
	Status string `json:"status"`
	// Progress is the job's counter set as of this event; Point the
	// completed cell of a point event.
	Progress Progress `json:"progress"`
	Point    *MCPoint `json:"point,omitempty"`
	// Error carries the failure reason of failed/canceled events.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether this event ends its stream.
func (e MCEvent) Terminal() bool {
	return e.Type == EventDone || e.Type == EventFailed || e.Type == EventCanceled
}

// --- Local implementation ---

// RunMC implements Client.
func (l *Local) RunMC(ctx context.Context, spec *MCSpec) (*MCResult, error) {
	id, err := l.SubmitMC(ctx, spec)
	if err != nil {
		return nil, err
	}
	if _, err := l.WaitMC(ctx, id); err != nil {
		return nil, err
	}
	return l.MCResults(ctx, id)
}

// SubmitMC implements Client.
func (l *Local) SubmitMC(_ context.Context, spec *MCSpec) (string, error) {
	return l.eng.SubmitMC(spec.request())
}

// MCStatus implements Client.
func (l *Local) MCStatus(_ context.Context, id string) (*MCResult, error) {
	job, ok := l.eng.GetMC(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNotFound, id)
	}
	job.Points = nil
	return toMCResult(job)
}

// WaitMC implements Client.
func (l *Local) WaitMC(ctx context.Context, id string) (*MCResult, error) {
	job, err := l.eng.WaitMC(ctx, id)
	if err != nil {
		if job.ID == "" {
			return nil, fmt.Errorf("%w %q", ErrNotFound, id)
		}
		return nil, err
	}
	job.Points = nil
	return toMCResult(job)
}

// MCResults implements Client.
func (l *Local) MCResults(_ context.Context, id string) (*MCResult, error) {
	job, ok := l.eng.GetMC(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNotFound, id)
	}
	switch job.Status {
	case engine.StatusDone:
		return toMCResult(job)
	case engine.StatusFailed, engine.StatusCanceled:
		return nil, &SweepError{ID: job.ID, Status: string(job.Status), Message: job.Error}
	default:
		return nil, fmt.Errorf("%w: mc job %s is %s (%d/%d points)",
			ErrNotDone, job.ID, job.Status, job.Progress.Completed, job.Progress.TotalPoints)
	}
}

// MCEvents implements Client.
func (l *Local) MCEvents(ctx context.Context, id string) (<-chan MCEvent, error) {
	ch, cancel, ok := l.eng.SubscribeMC(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNotFound, id)
	}
	out := make(chan MCEvent, 16)
	go func() {
		defer close(out)
		defer cancel()
		for {
			select {
			case ev, open := <-ch:
				if !open {
					return
				}
				var e MCEvent
				if err := reencode(ev, &e); err != nil {
					return
				}
				select {
				case out <- e:
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// CancelMC implements Client.
func (l *Local) CancelMC(_ context.Context, id string) error {
	switch err := l.eng.CancelMC(id); {
	case err == nil:
		return nil
	case errors.Is(err, engine.ErrAlreadyDone):
		return fmt.Errorf("%w: mc job %q", ErrAlreadyDone, id)
	default:
		return fmt.Errorf("%w %q", ErrNotFound, id)
	}
}

func toMCResult(job engine.MCJob) (*MCResult, error) {
	var r MCResult
	if err := reencode(job, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// --- Remote implementation ---

// RunMC implements Client.
func (c *Remote) RunMC(ctx context.Context, spec *MCSpec) (*MCResult, error) {
	id, err := c.SubmitMC(ctx, spec)
	if err != nil {
		return nil, err
	}
	if _, err := c.WaitMC(ctx, id); err != nil {
		return nil, err
	}
	return c.MCResults(ctx, id)
}

// SubmitMC implements Client.
func (c *Remote) SubmitMC(ctx context.Context, spec *MCSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	body, err := json.Marshal(spec.request())
	if err != nil {
		return "", err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := c.call(ctx, http.MethodPost, "/v1/mc", body, http.StatusAccepted, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// MCStatus implements Client.
func (c *Remote) MCStatus(ctx context.Context, id string) (*MCResult, error) {
	var r MCResult
	if err := c.call(ctx, http.MethodGet, "/v1/mc/"+url.PathEscape(id), nil, http.StatusOK, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WaitMC implements Client: follow the event stream when available,
// fall back to polling the status endpoint. Reconnect-mode semantics
// match Wait: transient failures are retried, a 404 ends the wait.
func (c *Remote) WaitMC(ctx context.Context, id string) (*MCResult, error) {
	if err := c.awaitTerminal(ctx, "/v1/mc/"+url.PathEscape(id)+"/events"); errors.Is(err, ErrNotFound) {
		return nil, err
	}
	ticker := time.NewTicker(c.poll)
	defer ticker.Stop()
	for {
		r, err := c.MCStatus(ctx, id)
		switch {
		case err == nil:
			switch r.Status {
			case StatusDone, StatusFailed, StatusCanceled:
				return r, nil
			}
		case !c.reconnect, errors.Is(err, ErrNotFound):
			return nil, err
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// MCResults implements Client.
func (c *Remote) MCResults(ctx context.Context, id string) (*MCResult, error) {
	var r MCResult
	if err := c.call(ctx, http.MethodGet, "/v1/mc/"+url.PathEscape(id)+"/results", nil, http.StatusOK, &r); err != nil {
		var swErr *SweepError
		if errors.As(err, &swErr) && swErr.ID == "" {
			swErr.ID = id
		}
		return nil, err
	}
	return &r, nil
}

// MCEvents implements Client: the job's NDJSON event stream, read line
// by line; canceling the context closes it. Reconnect-mode semantics
// match Events: dropped streams reopen against the daemon's replayed
// history, duplicate point events (keyed by kernel and triad) are
// skipped.
func (c *Remote) MCEvents(ctx context.Context, id string) (<-chan MCEvent, error) {
	path := "/v1/mc/" + url.PathEscape(id) + "/events"
	resp, err := c.openStream(ctx, path)
	if err != nil {
		return nil, err
	}
	out := make(chan MCEvent, 16)
	go func() {
		defer close(out)
		var seen map[mcPointKey]bool
		if c.reconnect {
			seen = make(map[mcPointKey]bool)
		}
		first := true
		for {
			done := forwardMCEvents(ctx, resp, out, seen, first)
			if done || !c.reconnect {
				return
			}
			first = false
			if resp = c.reopenStream(ctx, path); resp == nil {
				return
			}
		}
	}()
	return out, nil
}

// mcPointKey identifies a Monte Carlo point event for reconnect
// deduplication.
type mcPointKey struct {
	kernel string
	triad  Triad
}

// forwardMCEvents mirrors forwardSweepEvents for Monte Carlo streams.
func forwardMCEvents(ctx context.Context, resp *http.Response, out chan<- MCEvent,
	seen map[mcPointKey]bool, first bool) bool {
	defer resp.Body.Close()
	sc := newEventScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev MCEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return true
		}
		if ev.Type == EventPoint && ev.Point != nil {
			if seen != nil {
				key := mcPointKey{ev.Point.Kernel, ev.Point.Triad}
				if seen[key] {
					continue
				}
				seen[key] = true
			}
		} else if !first && !ev.Terminal() {
			continue
		}
		if ev.Terminal() {
			drainStream(resp.Body)
		}
		select {
		case out <- ev:
		case <-ctx.Done():
			return true
		}
		if ev.Terminal() {
			return true
		}
	}
	return false
}

// CancelMC implements Client.
func (c *Remote) CancelMC(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/mc/"+url.PathEscape(id), nil, http.StatusNoContent, nil)
}
