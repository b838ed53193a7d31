package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"spca/internal/matrix"
)

// HTTP/JSON protocol: the debuggable front end. Projection endpoints accept
//
//	POST /v1/transform            {"version": 0, "rows": [[...], ...]}
//	POST /v1/reconstruct          {"version": 0, "rows": [[...], ...]}
//	POST /v1/explained-variance   {"version": 0, "rows": [[...], ...]}
//
// where version 0 (or omitted) means the live model, and introspection is
//
//	GET /v1/models    registry listing, ascending versions
//	GET /v1/stats     per-endpoint counters and latency percentiles
//	GET /v1/healthz   200 once a model is live, 503 before
//
// Transform and reconstruct share the batcher with the binary protocol, so
// mixed-protocol load still coalesces into single matrix calls.

// projectRequest is the JSON body of the three projection endpoints.
type projectRequest struct {
	Version uint64      `json:"version"`
	Rows    [][]float64 `json:"rows"`
}

// projectResponse answers transform/reconstruct.
type projectResponse struct {
	Version uint64      `json:"version"`
	Rows    [][]float64 `json:"rows"`
}

// varianceResponse answers explained-variance: cumulative fractions.
type varianceResponse struct {
	Version   uint64    `json:"version"`
	Explained []float64 `json:"explained"`
}

// modelInfo is one registry entry in the /v1/models listing.
type modelInfo struct {
	Version    uint64 `json:"version"`
	Algorithm  string `json:"algorithm"`
	Dims       int    `json:"dims"`
	Components int    `json:"components"`
	Seed       uint64 `json:"seed"`
	Path       string `json:"path,omitempty"`
	Bytes      int64  `json:"bytes,omitempty"`
	Live       bool   `json:"live"`
}

// Handler returns the HTTP API. Mount it on any mux or serve it directly.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/transform", func(w http.ResponseWriter, r *http.Request) {
		s.project(w, r, opTransform, epHTTPTransform)
	})
	mux.HandleFunc("/v1/reconstruct", func(w http.ResponseWriter, r *http.Request) {
		s.project(w, r, opReconstruct, epHTTPReconstruct)
	})
	mux.HandleFunc("/v1/explained-variance", s.explainedVariance)
	mux.HandleFunc("/v1/models", s.models)
	mux.HandleFunc("/v1/stats", s.statsHandler)
	mux.HandleFunc("/v1/healthz", s.healthz)
	return mux
}

// decodeRows validates a projection body into a dense row-major batch. The
// body is read through the binary protocol's maxFrame bound, so a client
// cannot make the server buffer an unbounded JSON document.
func decodeRows(w http.ResponseWriter, r *http.Request) (*projectRequest, []float64, int, error) {
	if r.Method != http.MethodPost {
		return nil, nil, 0, fmt.Errorf("POST only")
	}
	var req projectRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFrame)).Decode(&req); err != nil {
		return nil, nil, 0, fmt.Errorf("bad JSON: %w", err)
	}
	if len(req.Rows) == 0 {
		return nil, nil, 0, fmt.Errorf("empty rows")
	}
	cols := len(req.Rows[0])
	if cols == 0 {
		return nil, nil, 0, fmt.Errorf("empty rows")
	}
	flat := make([]float64, 0, len(req.Rows)*cols)
	for i, row := range req.Rows {
		if len(row) != cols {
			return nil, nil, 0, fmt.Errorf("ragged rows: row %d has %d values, row 0 has %d", i, len(row), cols)
		}
		flat = append(flat, row...)
	}
	return &req, flat, cols, nil
}

// decodeError answers a decodeRows failure: 413 for a body over the bound,
// 400 for anything else.
func decodeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, "%v", err)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// project serves transform and reconstruct through the shared batcher.
func (s *Server) project(w http.ResponseWriter, r *http.Request, o op, ep endpoint) {
	req, flat, cols, err := decodeRows(w, r)
	if err != nil {
		decodeError(w, err)
		return
	}
	entry, err := s.resolve(req.Version)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	dims, d := entry.Model.Dims()
	want := dims
	if o == opReconstruct {
		want = d
	}
	if cols != want {
		httpError(w, http.StatusBadRequest,
			"input width %d does not match the model (want %d)", cols, want)
		return
	}
	breq := newRequest()
	breq.entry = entry
	breq.op = o
	breq.rows, breq.cols = len(req.Rows), cols
	breq.in = flat
	start := time.Now()
	err = s.bat.do(breq)
	s.stats[ep].observe(time.Since(start), err)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	out := make([][]float64, breq.rows)
	for i := range out {
		out[i] = breq.out[i*breq.outCols : (i+1)*breq.outCols]
	}
	writeJSON(w, projectResponse{Version: entry.Version, Rows: out})
}

// explainedVariance serves cumulative explained-variance fractions for a
// batch of data rows. Not batched: it is a whole-matrix statistic, not a
// per-row projection.
func (s *Server) explainedVariance(w http.ResponseWriter, r *http.Request) {
	req, flat, cols, err := decodeRows(w, r)
	if err != nil {
		decodeError(w, err)
		return
	}
	entry, err := s.resolve(req.Version)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	start := time.Now()
	y := matrix.FromDense(&matrix.Dense{R: len(req.Rows), C: cols, Data: flat})
	ev, err := entry.Model.ExplainedVariance(y)
	s.stats[epHTTPExplained].observe(time.Since(start), err)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, varianceResponse{Version: entry.Version, Explained: ev})
}

// models lists the registry.
func (s *Server) models(w http.ResponseWriter, r *http.Request) {
	live := s.reg.Latest()
	entries := s.reg.List()
	out := make([]modelInfo, 0, len(entries))
	for _, e := range entries {
		dims, d := e.Model.Dims()
		out = append(out, modelInfo{
			Version:    e.Version,
			Algorithm:  string(e.Model.Algorithm),
			Dims:       dims,
			Components: d,
			Seed:       e.Model.Seed,
			Path:       e.Path,
			Bytes:      e.Bytes,
			Live:       live != nil && e.Version == live.Version,
		})
	}
	writeJSON(w, out)
}

func (s *Server) statsHandler(w http.ResponseWriter, r *http.Request) {
	type statsResponse struct {
		LiveVersion uint64                  `json:"live_version"`
		Endpoints   map[string]StatSnapshot `json:"endpoints"`
	}
	resp := statsResponse{Endpoints: s.Stats()}
	if live := s.reg.Latest(); live != nil {
		resp.LiveVersion = live.Version
	}
	writeJSON(w, resp)
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.reg.Latest() == nil {
		httpError(w, http.StatusServiceUnavailable, "no model published yet")
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}
