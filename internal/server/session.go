package server

// Session endpoints: the stateful transport over the engine's
// session:* op family.
//
//	POST   /v1/session             open a session from a scenario body
//	POST   /v1/session/{id}/delta  apply one codec.Delta
//	POST   /v1/session/{id}/close  close the session
//	DELETE /v1/session/{id}        alias for close
//
// Sessions are deliberately OUTSIDE the content-addressed serving core:
// a delta mutates server-side state, so its response depends on the
// session's history, not just the request bytes — caching or
// singleflight-coalescing it would be wrong by construction. What the
// session path does share with the compute path is the drain gate, the
// pooled body reader, admission control (open and delta water-fill, so
// they take a worker slot), the per-request deadline, and the tracing
// middleware's request IDs.

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"closnet/internal/codec"
	"closnet/internal/engine"
)

// handleSessionOpen serves POST /v1/session.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.reply(w, engine.OpSessionOpen, http.StatusMethodNotAllowed, codec.ErrorBody("POST only"), "", start)
		return
	}
	if !s.beginRequest() {
		s.reply(w, engine.OpSessionOpen, http.StatusServiceUnavailable, codec.ErrorBody("draining"), "", start)
		return
	}
	defer s.endRequest()

	body, releaseBody, err := s.readBody(w, r)
	if err != nil {
		status, msg := bodyError(err)
		s.reply(w, engine.OpSessionOpen, status, msg, "", start)
		return
	}
	defer releaseBody()
	scen, err := codec.Decode(body)
	if err != nil {
		s.reply(w, engine.OpSessionOpen, http.StatusBadRequest, codec.ErrorBody(err.Error()), "", start)
		return
	}

	s.runSession(w, r, engine.OpSessionOpen, start, func(ctx context.Context) (*engine.SessionResponse, error) {
		return s.eng.Sessions().Open(ctx, scen)
	})
}

// handleSession serves the /v1/session/{id}... routes.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rest := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	id, action, _ := strings.Cut(rest, "/")
	if id == "" || strings.Contains(action, "/") {
		s.reply(w, "session", http.StatusNotFound, codec.ErrorBody("unknown session route"), "", start)
		return
	}

	switch {
	case action == "" && r.Method == http.MethodDelete,
		action == "close" && r.Method == http.MethodPost:
		if !s.beginRequest() {
			s.reply(w, engine.OpSessionClose, http.StatusServiceUnavailable, codec.ErrorBody("draining"), "", start)
			return
		}
		defer s.endRequest()
		// Close is a table delete — no admission slot needed.
		resp, err := s.eng.Sessions().Close(r.Context(), id)
		if err != nil {
			status, body := mapSessionError(err)
			s.reply(w, engine.OpSessionClose, status, body, "", start)
			return
		}
		s.reply(w, engine.OpSessionClose, http.StatusOK, resp.Body, "", start)

	case action == "delta" && r.Method == http.MethodPost:
		if !s.beginRequest() {
			s.reply(w, engine.OpSessionDelta, http.StatusServiceUnavailable, codec.ErrorBody("draining"), "", start)
			return
		}
		defer s.endRequest()
		body, releaseBody, err := s.readBody(w, r)
		if err != nil {
			status, msg := bodyError(err)
			s.reply(w, engine.OpSessionDelta, status, msg, "", start)
			return
		}
		defer releaseBody()
		d, err := codec.DecodeDelta(body)
		if err != nil {
			s.reply(w, engine.OpSessionDelta, http.StatusBadRequest, codec.ErrorBody(err.Error()), "", start)
			return
		}
		s.runSession(w, r, engine.OpSessionDelta, start, func(ctx context.Context) (*engine.SessionResponse, error) {
			return s.eng.Sessions().Delta(ctx, id, d)
		})

	case action == "" || action == "close" || action == "delta":
		allow := http.MethodPost
		if action == "" {
			allow = http.MethodDelete
		}
		w.Header().Set("Allow", allow)
		s.reply(w, "session", http.StatusMethodNotAllowed, codec.ErrorBody(allow+" only"), "", start)

	default:
		s.reply(w, "session", http.StatusNotFound, codec.ErrorBody("unknown session route"), "", start)
	}
}

// runSession runs one state-mutating session call under admission
// control and the per-request deadline, then replies with the body the
// engine wrote. The call is NOT cached or coalesced — see the package
// comment above.
func (s *Server) runSession(w http.ResponseWriter, r *http.Request, op string, start time.Time, fn func(ctx context.Context) (*engine.SessionResponse, error)) {
	if err := s.admit.acquire(r.Context()); err != nil {
		if errors.Is(err, errSaturated) {
			s.mRejects.Inc()
			s.reply(w, op, http.StatusTooManyRequests, codec.ErrorBody("server saturated; retry later"), "", start)
			return
		}
		s.reply(w, op, http.StatusServiceUnavailable, codec.ErrorBody(err.Error()), "", start)
		return
	}
	defer s.admit.release()

	ctx := r.Context()
	if t := s.opts.Timeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	resp, err := fn(ctx)
	if err != nil {
		status, body := mapSessionError(err)
		s.reply(w, op, status, body, "", start)
		return
	}
	s.reply(w, op, http.StatusOK, resp.Body, "", start)
}

// mapSessionError maps a session-layer failure to its HTTP shape: a
// full table sheds load like a saturated pool (429), a missing session
// is addressable state that isn't there (404), a delta the live session
// cannot apply is 422, deadline and cancellation mirror the compute
// path.
func mapSessionError(err error) (int, []byte) {
	switch {
	case errors.Is(err, engine.ErrSessionTableFull):
		return http.StatusTooManyRequests, codec.ErrorBody(err.Error())
	case errors.Is(err, engine.ErrSessionNotFound):
		return http.StatusNotFound, codec.ErrorBody(err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codec.ErrorBody("session deadline exceeded")
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, codec.ErrorBody("request cancelled")
	}
	return http.StatusUnprocessableEntity, codec.ErrorBody(err.Error())
}
