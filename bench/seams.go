package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// spanSvc wraps a DeploymentService at one layer seam and records a
// span around each call the workloads make; every other method passes
// straight through the embedded interface. The same wrapper sits at
// three seams: under the api.Client (layer "api"), around the Router
// (layer "federation") and around each shard's Service (layer
// "server"). calls counts the wrapped calls even when parentless.
type spanSvc struct {
	api.DeploymentService
	layer string
	tr    *tracer
	calls atomic.Int64
	polls atomic.Int64 // GetOperation calls among them
}

func traced[T any](s *spanSvc, ctx context.Context, name, op string, opOf func(T) string, call func(context.Context) (T, error)) (T, error) {
	s.calls.Add(1)
	i := s.tr.begin(s.layer, name, op, spanOf(ctx))
	out, err := call(withSpan(ctx, i))
	if err == nil && opOf != nil {
		op = opOf(out)
	}
	s.tr.end(i, op)
	return out, err
}

func opID(op api.Operation) string { return op.ID }

func (s *spanSvc) Deploy(ctx context.Context, req api.DeployRequest) (api.Operation, error) {
	return traced(s, ctx, "Deploy", "", opID, func(ctx context.Context) (api.Operation, error) {
		return s.DeploymentService.Deploy(ctx, req)
	})
}

func (s *spanSvc) Upgrade(ctx context.Context, req api.UpgradeRequest) (api.Operation, error) {
	return traced(s, ctx, "Upgrade", "", opID, func(ctx context.Context) (api.Operation, error) {
		return s.DeploymentService.Upgrade(ctx, req)
	})
}

func (s *spanSvc) Uninstall(ctx context.Context, req api.UninstallRequest) (api.Operation, error) {
	return traced(s, ctx, "Uninstall", "", opID, func(ctx context.Context) (api.Operation, error) {
		return s.DeploymentService.Uninstall(ctx, req)
	})
}

func (s *spanSvc) BatchDeploy(ctx context.Context, req api.BatchDeployRequest) (api.Operation, error) {
	return traced(s, ctx, "BatchDeploy", "", opID, func(ctx context.Context) (api.Operation, error) {
		return s.DeploymentService.BatchDeploy(ctx, req)
	})
}

func (s *spanSvc) BatchUpgrade(ctx context.Context, req api.BatchUpgradeRequest) (api.Operation, error) {
	return traced(s, ctx, "BatchUpgrade", "", opID, func(ctx context.Context) (api.Operation, error) {
		return s.DeploymentService.BatchUpgrade(ctx, req)
	})
}

func (s *spanSvc) BatchUninstall(ctx context.Context, req api.BatchUninstallRequest) (api.Operation, error) {
	return traced(s, ctx, "BatchUninstall", "", opID, func(ctx context.Context) (api.Operation, error) {
		return s.DeploymentService.BatchUninstall(ctx, req)
	})
}

func (s *spanSvc) GetOperation(ctx context.Context, id string) (api.Operation, error) {
	s.polls.Add(1)
	return traced(s, ctx, "GetOperation", id, nil, func(ctx context.Context) (api.Operation, error) {
		return s.DeploymentService.GetOperation(ctx, id)
	})
}

func (s *spanSvc) GetVehicle(ctx context.Context, id core.VehicleID) (api.VehicleDetail, error) {
	return traced(s, ctx, "GetVehicle", string(id), nil, func(ctx context.Context) (api.VehicleDetail, error) {
		return s.DeploymentService.GetVehicle(ctx, id)
	})
}

func (s *spanSvc) Status(ctx context.Context, v core.VehicleID, app core.AppName) (api.OpStatus, error) {
	return traced(s, ctx, "Status", string(v), nil, func(ctx context.Context) (api.OpStatus, error) {
		return s.DeploymentService.Status(ctx, v, app)
	})
}

// The span index crosses the HTTP hop in a header: the client side
// reads it from the request context, the server side puts it back into
// the handler's context. Both ends are this package's code.
const spanHeader = "X-Bench-Span"

// spanRoundTripper stamps the calling span on outgoing requests and
// counts the response body bytes the client reads (a fleet parent's body
// is chunked, so Content-Length would miss the largest ones).
type spanRoundTripper struct {
	next      http.RoundTripper
	respBytes atomic.Int64
}

func (rt *spanRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if i := spanOf(req.Context()); i >= 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(i))
	}
	resp, err := rt.next.RoundTrip(req)
	if err == nil {
		resp.Body = &countedBody{ReadCloser: resp.Body, n: &rt.respBytes}
	}
	return resp, err
}

type countedBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// spanHandler restores the caller's span into the request context.
func spanHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if i, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			r = r.WithContext(withSpan(r.Context(), i))
		}
		next.ServeHTTP(w, r)
	})
}

// shipTransport is the bench-owned journal.ShipTransport around
// journal.LocalTransport: it injects the constant leader→follower link
// delay, counts calls and bytes, and (traced) records the ship span
// with the replica's apply as its child. The journal's writer goroutine
// is its only caller.
type shipTransport struct {
	inner journal.LocalTransport
	delay time.Duration
	tr    *tracer
	shard string

	calls atomic.Int64
	bytes atomic.Int64
}

func (t *shipTransport) ShipSegment(gen uint64, offset int64, chunk []byte, reset bool) error {
	t.calls.Add(1)
	t.bytes.Add(int64(len(chunk)))
	ship := t.tr.begin("journal", "ship", t.shard, -1)
	time.Sleep(t.delay)
	apply := t.tr.begin("journal", "apply", t.shard, ship)
	err := t.inner.ShipSegment(gen, offset, chunk, reset)
	t.tr.end(apply, "")
	t.tr.end(ship, "")
	return err
}

func (t *shipTransport) ShipSnapshot(gen uint64, image []byte) error {
	time.Sleep(t.delay)
	return t.inner.ShipSnapshot(gen, image)
}

func (t *shipTransport) State() (journal.ReplicaState, error) { return t.inner.State() }
