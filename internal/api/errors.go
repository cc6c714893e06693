package api

import (
	"errors"
	"fmt"
	"net/http"
)

// The structured error model of the v1 deployment-service API. Every
// error that crosses the API boundary carries a stable machine-readable
// code; the HTTP layer maps codes to status lines, and clients recover
// the code from the wire without parsing message text.

// ErrorCode is a stable machine-readable error category.
type ErrorCode string

const (
	// CodeInvalidArgument: the request is malformed or fails validation.
	CodeInvalidArgument ErrorCode = "invalid_argument"
	// CodeNotFound: the referenced user, vehicle, app or operation
	// does not exist.
	CodeNotFound ErrorCode = "not_found"
	// CodeAlreadyExists: the entity being created already exists
	// (duplicate user, vehicle, app, or installation).
	CodeAlreadyExists ErrorCode = "already_exists"
	// CodePermissionDenied: the user does not own the vehicle.
	CodePermissionDenied ErrorCode = "permission_denied"
	// CodeFailedPrecondition: the system state rejects the operation
	// (incompatible app, dependent apps, dependency cycles).
	CodeFailedPrecondition ErrorCode = "failed_precondition"
	// CodeResourceExhausted: the client exceeded its rate limit or a
	// request-size limit.
	CodeResourceExhausted ErrorCode = "resource_exhausted"
	// CodeUnavailable: the vehicle is not connected or the transport
	// failed; retrying later may succeed.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeInterrupted: the operation was in flight when the server went
	// down and its outstanding acknowledgements are gone for good; the
	// request must be re-issued. Surfaced by crash recovery on
	// GET /v1/operations/{id}.
	CodeInterrupted ErrorCode = "interrupted"
	// CodeRolledBack: a live upgrade was automatically rolled back — the
	// new version failed its vehicle-side health probe (or the swap
	// could not complete) and the old version is running again. The
	// stable detail clients branch on when polling an upgrade operation.
	CodeRolledBack ErrorCode = "rollback"
	// CodeUnsafePlan: the static plan verifier rejected the operation —
	// some intermediate configuration along the reconfiguration path
	// violates a declared invariant (link compatibility, orphaned
	// ports, port-id collisions, the quiesce buffering bound, or
	// safe-state reachability). The message carries the minimal
	// counterexample path; nothing was pushed to the vehicle.
	CodeUnsafePlan ErrorCode = "unsafe_plan"
	// CodeRolloutUnhealthy: a progressive rollout's per-wave health gate
	// tripped — too many failed or vehicle-rolled-back upgrades in the
	// wave, or the ack-latency bound was exceeded — and the fleet was
	// automatically downgraded in reverse wave order. Carried as the
	// rollout operation's terminal error so clients polling
	// GET /v1/operations/{id} can branch on it.
	CodeRolloutUnhealthy ErrorCode = "rollout_unhealthy"
	// CodeRolloutAborted: the operator aborted a progressive rollout
	// (POST /v1/operations/{id}:abort) and the fleet was downgraded. The
	// rollout's terminal error when no health gate tripped first.
	CodeRolloutAborted ErrorCode = "rollout_aborted"
	// CodeNotLeader: the addressed server is not the current leader of
	// the vehicle's shard — it is a replication follower (or a deposed
	// leader). The request itself may be fine; re-resolving the shard's
	// leader and retrying there succeeds. Clients treat it like
	// unavailable but with a routing hint: rotate replicas before
	// backing off.
	CodeNotLeader ErrorCode = "not_leader"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
)

// Error is the typed error of the deployment-service API.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Error implements the error interface with the bare message, so
// existing substring checks on error text keep working.
func (e *Error) Error() string { return e.Message }

// Errorf builds an *Error with a formatted message.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// AsError coerces any error into an *Error; untyped errors become
// CodeInternal. A nil error stays nil.
func AsError(err error) *Error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	return &Error{Code: CodeInternal, Message: err.Error()}
}

// CodeOf extracts the error code, CodeInternal for untyped errors and
// "" for nil.
func CodeOf(err error) ErrorCode {
	if err == nil {
		return ""
	}
	return AsError(err).Code
}

// HTTPStatus maps an error code to its HTTP status line.
func HTTPStatus(code ErrorCode) int {
	switch code {
	case CodeInvalidArgument:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeAlreadyExists, CodeFailedPrecondition, CodeRolledBack, CodeUnsafePlan,
		CodeRolloutUnhealthy, CodeRolloutAborted:
		return http.StatusConflict
	case CodePermissionDenied:
		return http.StatusForbidden
	case CodeResourceExhausted:
		return http.StatusTooManyRequests
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeNotLeader:
		// Misdirected Request: right API, wrong server. Unique status so
		// bare-body responses still round-trip the code.
		return http.StatusMisdirectedRequest
	case CodeInterrupted:
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// CodeFromHTTPStatus recovers a best-effort code from a bare HTTP
// status, for responses that lack a structured body.
func CodeFromHTTPStatus(status int) ErrorCode {
	switch status {
	case http.StatusBadRequest:
		return CodeInvalidArgument
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeAlreadyExists
	case http.StatusForbidden:
		return CodePermissionDenied
	case http.StatusTooManyRequests:
		return CodeResourceExhausted
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusMisdirectedRequest:
		return CodeNotLeader
	default:
		return CodeInternal
	}
}

// errorBody is the wire envelope of every v1 error response.
type errorBody struct {
	Error *Error `json:"error"`
}

// ErrorBody wraps an error in the v1 wire envelope, for handlers that
// need to emit the structured body directly.
func ErrorBody(err error) any { return errorBody{Error: AsError(err)} }
