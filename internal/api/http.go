package api

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The /v1 HTTP surface is generated from the route table in routes.go:
// NewHandler registers one handler per row, and the row supplies the
// request decoding, the method to call and the success status.

// HandlerOptions tunes the middleware around the v1 surface.
type HandlerOptions struct {
	// Logf receives one line per request and every handler diagnostic;
	// nil disables logging.
	Logf func(format string, args ...any)
	// MaxBodyBytes caps request bodies; 0 means the 8 MiB default,
	// negative disables the cap.
	MaxBodyBytes int64
	// RatePerSecond is the steady per-client request rate; 0 means the
	// default (200/s), negative disables rate limiting.
	RatePerSecond float64
	// Burst is the per-client burst allowance; 0 means 2x the rate.
	Burst float64
}

const defaultMaxBody = 8 << 20

func (o *HandlerOptions) withDefaults() HandlerOptions {
	out := HandlerOptions{}
	if o != nil {
		out = *o
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	if out.MaxBodyBytes == 0 {
		out.MaxBodyBytes = defaultMaxBody
	}
	if out.RatePerSecond == 0 {
		out.RatePerSecond = 200
	}
	if out.Burst == 0 {
		out.Burst = 2 * out.RatePerSecond
	}
	return out
}

// clientKey identifies a client for rate limiting: the remote IP.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// NewHandler builds the /v1 HTTP handler over a DeploymentService with
// the middleware chain: request logging, panic recovery, per-client
// rate limiting and request-size limits.
func NewHandler(svc DeploymentService, opts *HandlerOptions) http.Handler {
	h := &handler{svc: svc, o: opts.withDefaults()}
	if h.o.RatePerSecond > 0 {
		h.limiter = newRateLimiter(h.o.RatePerSecond, h.o.Burst)
	}

	mux := http.NewServeMux()
	for _, rt := range Routes {
		serve := h.serve(rt)
		if !rt.RateExempt {
			serve = h.rateMW(serve)
		}
		mux.Handle(rt.pattern, serve)
	}
	mux.Handle("/v1/", h.rateMW(http.HandlerFunc(h.notFound)))
	return h.logMW(h.recoverMW(h.limitMW(mux)))
}

type handler struct {
	svc     DeploymentService
	o       HandlerOptions
	limiter *rateLimiter
}

// statusRecorder captures the status line for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (h *handler) logMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		h.o.Logf("api: %s %s -> %d (%s)", r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
	})
}

func (h *handler) recoverMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				h.o.Logf("api: panic serving %s %s: %v", r.Method, r.URL.Path, p)
				h.writeError(w, Errorf(CodeInternal, "api: internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (h *handler) rateMW(next http.Handler) http.Handler {
	if h.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.limiter.allow(clientKey(r)) {
			h.writeError(w, Errorf(CodeResourceExhausted, "api: rate limit exceeded"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// serve is the one handler body: decode the row's argument, call the
// row's method, answer with the row's status.
func (h *handler) serve(rt *Route) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arg, err := rt.decode(r)
		if err != nil {
			h.writeError(w, err)
			return
		}
		out, err := rt.call(r.Context(), h.svc, arg)
		if err != nil {
			h.writeError(w, err)
			return
		}
		h.writeJSON(w, rt.Status, out)
	})
}

func (h *handler) limitMW(next http.Handler) http.Handler {
	if h.o.MaxBodyBytes < 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, h.o.MaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// WriteJSON writes v with the API content type; encode failures (the
// status line is already gone) go to logf, which may be nil. Shared by
// the v1 handler and the follower node's replication endpoints so the
// write policy has one home.
func WriteJSON(w http.ResponseWriter, status int, v any, logf func(format string, args ...any)) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil && logf != nil {
		logf("api: encoding response: %v", err)
	}
}

// DecodeJSON strictly decodes a request body into v (unknown fields
// rejected), returning a typed *Error on failure.
func DecodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return Errorf(CodeResourceExhausted, "api: request body over %d bytes", tooLarge.Limit)
		}
		return Errorf(CodeInvalidArgument, "api: bad request body: %v", err)
	}
	return nil
}

func (h *handler) writeJSON(w http.ResponseWriter, status int, v any) {
	WriteJSON(w, status, v, h.o.Logf)
}

func (h *handler) writeError(w http.ResponseWriter, err error) {
	e := AsError(err)
	h.writeJSON(w, HTTPStatus(e.Code), errorBody{Error: e})
}

func pageOf(r *http.Request) (Page, error) {
	var p Page
	if raw := r.URL.Query().Get("pageSize"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return p, Errorf(CodeInvalidArgument, "api: bad pageSize %q", raw)
		}
		p.Size = n
	}
	p.Token = r.URL.Query().Get("pageToken")
	return p, nil
}

func (h *handler) notFound(w http.ResponseWriter, r *http.Request) {
	h.writeError(w, Errorf(CodeNotFound, "api: no such endpoint %s %s", r.Method, r.URL.Path))
}

// rateLimiter is a per-client token bucket with a hard cap on tracked
// clients: idle buckets are pruned first, and if every bucket is still
// active a random one is evicted, so memory stays bounded even under
// fleet-scale distinct-client load (an evicted client merely restarts
// with a fresh burst).
type rateLimiter struct {
	rate, burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

const maxBuckets = 4096

func newRateLimiter(rate, burst float64) *rateLimiter {
	return &rateLimiter{rate: rate, burst: burst, buckets: make(map[string]*bucket)}
}

func (l *rateLimiter) allow(key string) bool {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxBuckets {
			l.prune(now)
			for k := range l.buckets {
				if len(l.buckets) < maxBuckets {
					break
				}
				delete(l.buckets, k)
			}
		}
		b = &bucket{tokens: l.burst}
		l.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// prune drops buckets that have fully refilled; called with l.mu held.
func (l *rateLimiter) prune(now time.Time) {
	idle := time.Duration(float64(time.Second) * l.burst / l.rate)
	for k, b := range l.buckets {
		if now.Sub(b.last) > idle {
			delete(l.buckets, k)
		}
	}
}
