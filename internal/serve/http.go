package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the service's HTTP API:
//
//	POST   /jobs             submit a job (202; 200 when deduped)
//	GET    /jobs             list job statuses
//	GET    /jobs/{id}        one job's status (?runs=1 for outcomes,
//	                         ?wait=<ms> to long-poll for completion)
//	GET    /jobs/{id}/events NDJSON event stream (history + live;
//	                         ?from=<seq> resumes after a reconnect)
//	DELETE /jobs/{id}        cancel
//	GET    /healthz          liveness and load
//	GET    /fleetz           fleet membership
//
// Every error response is an APIError JSON body with a machine-readable code.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /fleetz", s.handleFleet)
	return mux
}

// httpStatus maps service error codes onto HTTP statuses.
func httpStatus(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeDraining:
		return http.StatusServiceUnavailable
	case CodeNotOwner:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) // a failed write means the client left; nothing to do
}

func writeErr(w http.ResponseWriter, aerr *APIError) {
	status := httpStatus(aerr.Code)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// The header is the typed hint rounded up to whole seconds (the
		// header's granularity); RetryAfterMS in the body is exact.
		secs := (aerr.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, aerr)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body := io.LimitReader(r.Body, 1<<20) // a submission is specs, not data
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, apiErrorf(CodeBadRequest, "malformed JSON: %v", err))
		return
	}
	resp, aerr := s.Submit(req)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	status := http.StatusAccepted
	if resp.Deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statuses())
}

// settledLocked reports whether a long-poll should answer now: the job is
// terminal, or it is parked (shed/checkpointed by a drain) or stolen — states
// this process will never advance, so holding the poll open would just burn
// the client's wait budget. Caller holds j.mu.
func settledLocked(j *job) bool {
	switch j.state {
	case StateShed, StateCheckpointed, StateStolen:
		return true
	}
	return j.state.Terminal()
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	includeRuns := r.URL.Query().Get("runs") == "1"
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		ms, err := strconv.ParseInt(waitStr, 10, 64)
		if err != nil || ms < 0 {
			writeErr(w, apiErrorf(CodeBadRequest, "wait must be a non-negative integer (milliseconds)"))
			return
		}
		// Long-poll: wait until the job settles, the wait deadline passes,
		// or the client goes away. The job handle is re-fetched and its
		// state re-checked on every wakeup — a snapshot taken before the
		// wait can go stale (the job sheds during a drain, is stolen, or is
		// replaced by re-admission) and j.done on a dead handle never
		// closes.
		timer := time.NewTimer(time.Duration(ms) * time.Millisecond)
		defer timer.Stop()
	wait:
		for {
			j, ok := s.Job(id)
			if !ok {
				break // remote or unknown: StatusAny below settles it
			}
			j.mu.Lock()
			settled := settledLocked(j)
			changed := j.changed
			j.mu.Unlock()
			if settled {
				break
			}
			select {
			case <-j.done:
			case <-changed:
			case <-timer.C:
				break wait
			case <-r.Context().Done():
				return
			}
		}
	}
	st, ok := s.StatusAny(id, includeRuns)
	if !ok {
		writeErr(w, apiErrorf(CodeNotFound, "no job %s", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// eventWriteTimeout bounds each write on the events stream. The stream is
// long-lived by design (no server-wide WriteTimeout can apply), so a client
// that stops reading is instead cut off at its next event: the deadline
// expires, the write errors, and the handler goroutine exits.
const eventWriteTimeout = 30 * time.Second

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		// Event streams are owner-only (the broker is in-process state): a
		// peer answers with the owner's address so the client can reconnect
		// there instead of getting a 404 for a job that exists.
		if _, err := s.store.loadJob(id); err == nil {
			writeErr(w, s.notOwnerError(id))
			return
		}
		writeErr(w, apiErrorf(CodeNotFound, "no job %s", id))
		return
	}

	// ?from= skips the first N events (a reconnecting client resumes after
	// its high-water mark instead of re-reading history).
	seen := 0
	if fromStr := r.URL.Query().Get("from"); fromStr != "" {
		from, err := strconv.Atoi(fromStr)
		if err != nil || from < 0 {
			writeErr(w, apiErrorf(CodeBadRequest, "from must be a non-negative integer (event seq)"))
			return
		}
		seen = from
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	write := func(ev JobEvent) bool {
		rc.SetWriteDeadline(time.Now().Add(eventWriteTimeout))
		return enc.Encode(ev) == nil
	}

	// The broker force-detaches a subscriber that overruns its buffer instead
	// of letting it stall publishers (which run on the job worker path), so
	// consume in a catch-up loop: on detach, re-subscribe from the high-water
	// mark and replay the missed span from the history. seen counts events
	// written (plus the ?from= offset); with publication serialized per job
	// it equals the next seq.
	for {
		history, live, cancel := j.broker.SubscribeFrom(seen)
		for _, ev := range history {
			if !write(ev) {
				cancel()
				return
			}
			seen++
		}
		if flusher != nil {
			flusher.Flush()
		}
	read:
		for {
			select {
			case ev, open := <-live:
				if !open {
					break read // stream complete, or we lagged and were detached
				}
				if !write(ev) {
					cancel()
					return // client gone or wedged past the write deadline
				}
				seen++
				if flusher != nil {
					flusher.Flush()
				}
			case <-r.Context().Done():
				cancel()
				return
			}
		}
		cancel()
		if j.broker.Closed() && j.broker.Len() <= seen {
			return // complete: every event written
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, aerr := s.Cancel(id)
	if aerr != nil && aerr.Code == CodeNotFound {
		if _, err := s.store.loadJob(id); err == nil {
			aerr = s.notOwnerError(id)
		}
	}
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Fleet())
}
