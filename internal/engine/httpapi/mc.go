package httpapi

// Monte Carlo job routes: the /v1/mc surface mirrors /v1/sweeps —
// submit/status/results/events/cancel with the same error envelope,
// tenant-quota accounting and NDJSON event streaming — over the
// engine's MC job registry instead of the sweep registry.

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/engine"
)

// registerMC mounts the Monte Carlo routes on the mux.
func (s *server) registerMC(m *http.ServeMux) {
	m.HandleFunc("POST /v1/mc", s.submitMC)
	m.HandleFunc("GET /v1/mc/{id}", s.getMC)
	m.HandleFunc("GET /v1/mc/{id}/results", s.getMCResults)
	m.HandleFunc("GET /v1/mc/{id}/events", s.mcEvents)
	m.HandleFunc("DELETE /v1/mc/{id}", s.cancelMC)
}

func (s *server) submitMC(w http.ResponseWriter, r *http.Request) {
	var req engine.MCRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decode request: %v", err)
		return
	}
	submit := func() (string, error) { return s.eng.SubmitMC(req) }
	var id string
	var err error
	// Monte Carlo jobs draw from the same per-tenant in-flight budget as
	// sweeps: the quota registry keys by id, and the two registries'
	// id spaces ("s-"/"mc-") are disjoint, so one statusOf can resolve
	// both.
	if s.quota != nil && !s.quota.exempt[Tenant(r)] {
		tenant := Tenant(r)
		statusOf := func(id string) (engine.Status, bool) {
			if job, ok := s.eng.GetMC(id); ok {
				return job.Status, true
			}
			sw, ok := s.eng.Get(id)
			return sw.Status, ok
		}
		var admitted bool
		id, err, admitted = s.quota.admit(tenant, statusOf, submit)
		if !admitted {
			writeError(w, http.StatusTooManyRequests, CodeQuotaExceeded,
				"tenant %q already has %d in-flight sweeps", tenant, s.quota.max)
			return
		}
	} else {
		id, err = submit()
	}
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id})
}

// mcStatusOnly strips the (potentially large) per-point series from a
// job snapshot for the status endpoint.
func mcStatusOnly(job engine.MCJob) engine.MCJob {
	job.Points = nil
	return job
}

func (s *server) getMC(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.GetMC(r.PathValue("id"))
	if !ok {
		s.unknownID(w, "mc job", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, mcStatusOnly(job))
}

func (s *server) getMCResults(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.GetMC(r.PathValue("id"))
	if !ok {
		s.unknownID(w, "mc job", r.PathValue("id"))
		return
	}
	switch job.Status {
	case engine.StatusDone:
		writeJSON(w, http.StatusOK, job)
	case engine.StatusFailed:
		writeError(w, http.StatusGone, CodeSweepFailed, "mc job %s failed: %s", job.ID, job.Error)
	case engine.StatusCanceled:
		writeError(w, http.StatusGone, CodeSweepCanceled, "mc job %s canceled: %s", job.ID, job.Error)
	default:
		writeError(w, http.StatusConflict, CodeSweepRunning,
			"mc job %s is %s (%d/%d points); poll again or stream /events",
			job.ID, job.Status, job.Progress.Completed, job.Progress.TotalPoints)
	}
}

// mcEvents streams the job's event feed as NDJSON until the terminal
// event, with the same semantics as the sweep events endpoint.
func (s *server) mcEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, ok := s.eng.SubscribeMC(r.PathValue("id"))
	if !ok {
		s.unknownID(w, "mc job", r.PathValue("id"))
		return
	}
	defer cancel()
	streamEvents(w, r, ch)
}

func (s *server) cancelMC(w http.ResponseWriter, r *http.Request) {
	switch err := s.eng.CancelMC(r.PathValue("id")); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, engine.ErrAlreadyDone):
		writeError(w, http.StatusConflict, CodeAlreadyDone, "%v", err)
	default:
		s.unknownID(w, "mc job", r.PathValue("id"))
	}
}
