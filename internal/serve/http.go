package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// Handler returns the HTTP face of the scheduler — the jetsimd server:
//
//	POST /run     one Job body            → one JobResult
//	POST /batch   a JSON array of Jobs    → an array of JobResults,
//	              served concurrently, responded in submission order
//	GET  /stats   scheduler counters as JSON
//	GET  /healthz liveness probe
//
// Job-level failures (a config the registry rejects, a diverged run)
// come back 200 with ok=false and the error in the body — the service
// worked, the job didn't. Admission shedding (ErrBusy/ErrClosed) is 503
// so load balancers and clients back off; malformed JSON, and a job
// field the protocol does not define, is 400.
func (s *Scheduler) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		var job Job
		if err := decodeStrict(r.Body, &job); err != nil {
			http.Error(w, "bad job: "+err.Error(), http.StatusBadRequest)
			return
		}
		rep, err := s.serve(job.Config())
		status := http.StatusOK
		if errors.Is(err, ErrBusy) || errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, ResultOf(job.ID, rep, err))
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		var jobs []Job
		if err := decodeStrict(r.Body, &jobs); err != nil {
			http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, s.Batch(jobs))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return mux
}

// decodeStrict decodes one JSON value, rejecting fields the target does
// not define: a misspelled job field must fail, not run and be cached
// under a config other than the one asked for.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
