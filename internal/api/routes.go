package api

import (
	"context"
	"net/http"
	"net/url"
	"strings"

	"dynautosar/internal/core"
)

// The /v1 route table: one row per DeploymentService method, and the
// single description the HTTP handler (http.go), the HTTP client
// (client.go), the retrying client (retry.go) and the federation
// router's pass-through are all derived from. Each of those implements
// Invoker once; Stub is the one typed DeploymentService over it.
//
// What a row's columns decide:
//
//   - verb, path and status are the wire: the handler registers
//     "VERB path" and answers success with status; the client sends the
//     same. A "{id}" segment carries a byID row's argument, and a
//     ":verb" suffix after it is a custom verb on the resource.
//   - the method expression fixes the request and response types, so a
//     row cannot disagree with the interface about either.
//   - the class tells the federation router how to serve the call
//     across shards (see Class).
//   - the owner column of an Owner-class row names the vehicles whose
//     shard serves the request.
//   - the key column points at the request's IdempotencyKey field. A row
//     that starts an operation (status 202) without one is at-most-once:
//     see Route.Resendable.
//
// List rows take ?pageSize= and ?pageToken=. Every error response is
// the envelope {"error": {"code": ..., "message": ...}}.
var Routes = []*Route{
	body("CreateUser", "POST /v1/users", 201, DeploymentService.CreateUser, Broadcast, nil, nil),
	byID("GetUser", "GET /v1/users/{id}", 200, DeploymentService.GetUser, Merge),
	body("BindVehicle", "POST /v1/vehicles", 201, DeploymentService.BindVehicle, Owner,
		func(r BindVehicleRequest) vins { return vins{r.Conf.Vehicle} }, nil),
	paged("ListVehicles", "GET /v1/vehicles", DeploymentService.ListVehicles, Merge),
	byID("GetVehicle", "GET /v1/vehicles/{id}", 200, DeploymentService.GetVehicle, Owner),
	body("UploadApp", "POST /v1/apps", 201, DeploymentService.UploadApp, Broadcast, nil, nil),
	paged("ListApps", "GET /v1/apps", DeploymentService.ListApps, AnyShard),
	byID("GetApp", "GET /v1/apps/{name}", 200, DeploymentService.GetApp, AnyShard),
	body("Deploy", "POST /v1/deploy", 202, DeploymentService.Deploy, Owner,
		func(r DeployRequest) vins { return vins{r.Vehicle} }, func(r *DeployRequest) *string { return &r.IdempotencyKey }),
	body("BatchDeploy", "POST /v1/deploy:batch", 202, DeploymentService.BatchDeploy, Split,
		nil, func(r *BatchDeployRequest) *string { return &r.IdempotencyKey }),
	body("Uninstall", "POST /v1/uninstall", 202, DeploymentService.Uninstall, Owner,
		func(r UninstallRequest) vins { return vins{r.Vehicle} }, func(r *UninstallRequest) *string { return &r.IdempotencyKey }),
	body("BatchUninstall", "POST /v1/uninstall:batch", 202, DeploymentService.BatchUninstall, Split,
		nil, func(r *BatchUninstallRequest) *string { return &r.IdempotencyKey }),
	body("Upgrade", "POST /v1/upgrade", 202, DeploymentService.Upgrade, Owner,
		func(r UpgradeRequest) vins { return vins{r.Vehicle} }, func(r *UpgradeRequest) *string { return &r.IdempotencyKey }),
	body("BatchUpgrade", "POST /v1/upgrade:batch", 202, DeploymentService.BatchUpgrade, Split,
		nil, func(r *BatchUpgradeRequest) *string { return &r.IdempotencyKey }),
	// A rollout's wave state machine lives on one server, so its
	// vehicles must share a shard.
	body("StartRollout", "POST /v1/rollout", 202, DeploymentService.StartRollout, Owner,
		func(r RolloutRequest) vins { return r.Vehicles }, nil),
	paged("ListRollouts", "GET /v1/rollouts", DeploymentService.ListRollouts, Merge),
	byID("GetRollout", "GET /v1/rollouts/{id}", 200, DeploymentService.GetRollout, ByID),
	byID("AbortRollout", "POST /v1/rollouts/{id}:abort", 202, DeploymentService.AbortRollout, ByID),
	body("Restore", "POST /v1/restore", 202, DeploymentService.Restore, Owner,
		func(r RestoreRequest) vins { return vins{r.Vehicle} }, func(r *RestoreRequest) *string { return &r.IdempotencyKey }),
	// A rejected plan is a successful dry-run: the verdict travels in
	// the 200 body, not in the status line.
	body("Verify", "POST /v1/verify", 200, DeploymentService.Verify, Owner,
		func(r VerifyRequest) vins { return vins{r.Vehicle} }, nil),
	statusRoute("Status", "GET /v1/status"),
	// Readiness probes and monitoring scrapes are rate-limit exempt:
	// orchestrators gate traffic on healthz, and a probe sharing a NAT'd
	// client key with API traffic must never see a healthy server answer
	// 429; statz is scraped on a fixed interval by collectors that must
	// keep observing exactly when the server is saturated enough to
	// rate-limit.
	bare("Health", "GET /v1/healthz", DeploymentService.Health, Merge, rateExempt),
	bare("Statz", "GET /v1/statz", DeploymentService.Statz, Merge, rateExempt),
	paged("ListOperations", "GET /v1/operations", DeploymentService.ListOperations, Merge),
	byID("GetOperation", "GET /v1/operations/{id}", 200, DeploymentService.GetOperation, ByID),
}

// Class is how the federation router serves a route across shards.
type Class int

const (
	// Owner: the shard that owns the request's vehicles serves it.
	Owner Class = iota + 1
	// Broadcast: a create of a global entity (user, app), applied on
	// every shard.
	Broadcast
	// AnyShard: a read of a global entity; every shard holds the answer.
	AnyShard
	// Split: a fleet request, partitioned per shard under a router-local
	// parent operation.
	Split
	// Merge: a read whose answer aggregates every shard's.
	Merge
	// ByID: addressed by a resource id the router qualified with its
	// shard ("<shard>/<id>"); bare ids are probed shard by shard.
	ByID
)

// Route is one row of the table.
type Route struct {
	// Name is the DeploymentService method the row describes.
	Name string
	// Verb, Path and Status are the wire: the request line and the
	// success status.
	Verb, Path string
	Status     int
	Class      Class
	// Keyed reports that the request carries an IdempotencyKey the server
	// deduplicates on.
	Keyed bool
	// RateExempt takes the route out of per-client rate limiting.
	RateExempt bool

	// pattern is the ServeMux registration: Verb and Path without a
	// custom-verb suffix.
	pattern string
	// call invokes the row's method on svc.
	call func(ctx context.Context, svc DeploymentService, arg any) (any, error)
	// decode is the server half of the argument codec, request the
	// client half: the URI to send and the JSON body, if any.
	decode  func(r *http.Request) (any, error)
	request func(arg any) (uri string, body any)
	// response runs fill on a pointer to a fresh response value and
	// returns the value.
	response func(fill func(out any) error) (any, error)
	vehicles func(arg any) []core.VehicleID
	// stamp returns arg with its idempotency key set to mint() if it had
	// none; nil on unkeyed rows.
	stamp func(arg any, mint func() string) any
}

// Call invokes the route's method on svc with the argument the typed
// stub packed: the request struct, the id, the Page, or struct{}{}.
func (rt *Route) Call(ctx context.Context, svc DeploymentService, arg any) (any, error) {
	return rt.call(ctx, svc, arg)
}

// Vehicles names the vehicles an Owner-class request is about.
func (rt *Route) Vehicles(arg any) []core.VehicleID { return rt.vehicles(arg) }

// Resendable reports whether a call that failed with err may be sent
// again — to the same server later, or to a sibling replica now.
// `not_leader` always: the server refused before doing anything.
// `unavailable` covers a response lost after the leader journaled the
// request, so it is resendable only where a second copy is harmless:
// reads change nothing, entity creates (201) are guarded by their
// natural key, keyed operation creates are deduplicated by the server.
// A row that starts an operation (202) without an idempotency key is
// at-most-once.
func (rt *Route) Resendable(err error) bool {
	switch CodeOf(err) {
	case CodeNotLeader:
		return true
	case CodeUnavailable:
		return rt.Keyed || rt.Status != http.StatusAccepted
	}
	return false
}

// Invoker carries out one route. The HTTP client, the retrying client
// and the federation router each implement it once instead of the
// method set.
type Invoker interface {
	Invoke(ctx context.Context, rt *Route, arg any) (any, error)
}

var routeByName = func() map[string]*Route {
	m := make(map[string]*Route, len(Routes))
	for _, rt := range Routes {
		m[rt.Name] = rt
	}
	return m
}()

// RouteOf returns the row of a DeploymentService method.
func RouteOf(method string) *Route { return routeByName[method] }

// InvokeAs carries out the named method through inv and types the
// result.
func InvokeAs[R any](ctx context.Context, inv Invoker, method string, arg any) (R, error) {
	out, err := inv.Invoke(ctx, routeByName[method], arg)
	r, _ := out.(R)
	return r, err
}

// Stub is the typed DeploymentService over an Invoker: one line per
// method, each packing its arguments the way the row's codec expects.
type Stub struct{ Invoker }

var _ DeploymentService = Stub{}

func (s Stub) CreateUser(ctx context.Context, req CreateUserRequest) (User, error) {
	return InvokeAs[User](ctx, s.Invoker, "CreateUser", req)
}
func (s Stub) GetUser(ctx context.Context, id core.UserID) (User, error) {
	return InvokeAs[User](ctx, s.Invoker, "GetUser", id)
}
func (s Stub) BindVehicle(ctx context.Context, req BindVehicleRequest) (VehicleRecord, error) {
	return InvokeAs[VehicleRecord](ctx, s.Invoker, "BindVehicle", req)
}
func (s Stub) GetVehicle(ctx context.Context, id core.VehicleID) (VehicleDetail, error) {
	return InvokeAs[VehicleDetail](ctx, s.Invoker, "GetVehicle", id)
}
func (s Stub) ListVehicles(ctx context.Context, page Page) (VehicleList, error) {
	return InvokeAs[VehicleList](ctx, s.Invoker, "ListVehicles", page)
}
func (s Stub) UploadApp(ctx context.Context, app App) (AppRef, error) {
	return InvokeAs[AppRef](ctx, s.Invoker, "UploadApp", app)
}
func (s Stub) GetApp(ctx context.Context, name core.AppName) (App, error) {
	return InvokeAs[App](ctx, s.Invoker, "GetApp", name)
}
func (s Stub) ListApps(ctx context.Context, page Page) (AppList, error) {
	return InvokeAs[AppList](ctx, s.Invoker, "ListApps", page)
}
func (s Stub) Deploy(ctx context.Context, req DeployRequest) (Operation, error) {
	return InvokeAs[Operation](ctx, s.Invoker, "Deploy", req)
}
func (s Stub) Uninstall(ctx context.Context, req UninstallRequest) (Operation, error) {
	return InvokeAs[Operation](ctx, s.Invoker, "Uninstall", req)
}
func (s Stub) Upgrade(ctx context.Context, req UpgradeRequest) (Operation, error) {
	return InvokeAs[Operation](ctx, s.Invoker, "Upgrade", req)
}
func (s Stub) Restore(ctx context.Context, req RestoreRequest) (Operation, error) {
	return InvokeAs[Operation](ctx, s.Invoker, "Restore", req)
}
func (s Stub) Verify(ctx context.Context, req VerifyRequest) (VerifyReport, error) {
	return InvokeAs[VerifyReport](ctx, s.Invoker, "Verify", req)
}
func (s Stub) BatchDeploy(ctx context.Context, req BatchDeployRequest) (Operation, error) {
	return InvokeAs[Operation](ctx, s.Invoker, "BatchDeploy", req)
}
func (s Stub) BatchUninstall(ctx context.Context, req BatchUninstallRequest) (Operation, error) {
	return InvokeAs[Operation](ctx, s.Invoker, "BatchUninstall", req)
}
func (s Stub) BatchUpgrade(ctx context.Context, req BatchUpgradeRequest) (Operation, error) {
	return InvokeAs[Operation](ctx, s.Invoker, "BatchUpgrade", req)
}
func (s Stub) StartRollout(ctx context.Context, req RolloutRequest) (RolloutStatus, error) {
	return InvokeAs[RolloutStatus](ctx, s.Invoker, "StartRollout", req)
}
func (s Stub) GetRollout(ctx context.Context, id string) (RolloutStatus, error) {
	return InvokeAs[RolloutStatus](ctx, s.Invoker, "GetRollout", id)
}
func (s Stub) AbortRollout(ctx context.Context, id string) (RolloutStatus, error) {
	return InvokeAs[RolloutStatus](ctx, s.Invoker, "AbortRollout", id)
}
func (s Stub) ListRollouts(ctx context.Context, page Page) (RolloutList, error) {
	return InvokeAs[RolloutList](ctx, s.Invoker, "ListRollouts", page)
}
func (s Stub) Status(ctx context.Context, vehicle core.VehicleID, app core.AppName) (OpStatus, error) {
	return InvokeAs[OpStatus](ctx, s.Invoker, "Status", statusQuery{vehicle, app})
}
func (s Stub) Health(ctx context.Context) (Health, error) {
	return InvokeAs[Health](ctx, s.Invoker, "Health", struct{}{})
}
func (s Stub) Statz(ctx context.Context) (Statz, error) {
	return InvokeAs[Statz](ctx, s.Invoker, "Statz", struct{}{})
}
func (s Stub) GetOperation(ctx context.Context, id string) (Operation, error) {
	return InvokeAs[Operation](ctx, s.Invoker, "GetOperation", id)
}
func (s Stub) ListOperations(ctx context.Context, page Page) (OperationList, error) {
	return InvokeAs[OperationList](ctx, s.Invoker, "ListOperations", page)
}

// ---- row constructors, one per argument shape ----

type vins = []core.VehicleID

const rateExempt = true

// newRoute binds the columns every row has; the shape constructors add
// the argument codec.
func newRoute[A, R any](name, verbPath string, status int, m func(DeploymentService, context.Context, A) (R, error), class Class) *Route {
	verb, path, _ := strings.Cut(verbPath, " ")
	return &Route{
		Name: name, Verb: verb, Path: path, Status: status, Class: class, pattern: verbPath,
		call: func(ctx context.Context, svc DeploymentService, arg any) (any, error) {
			return m(svc, ctx, arg.(A))
		},
		response: func(fill func(any) error) (any, error) {
			var out R
			err := fill(&out)
			return out, err
		},
	}
}

// body rows carry their argument as the strictly decoded JSON body.
// owner is the Owner-class routing key and key the request's
// IdempotencyKey field; either may be nil.
func body[A, R any](name, verbPath string, status int, m func(DeploymentService, context.Context, A) (R, error),
	class Class, owner func(A) vins, key func(*A) *string) *Route {
	rt := newRoute(name, verbPath, status, m, class)
	rt.decode = func(r *http.Request) (any, error) {
		var a A
		err := DecodeJSON(r, &a)
		return a, err
	}
	rt.request = func(arg any) (string, any) { return rt.Path, arg }
	if owner != nil {
		rt.vehicles = func(arg any) vins { return owner(arg.(A)) }
	}
	if key != nil {
		rt.Keyed = true
		rt.stamp = func(arg any, mint func() string) any {
			a := arg.(A)
			if k := key(&a); *k == "" {
				*k = mint()
			}
			return a
		}
	}
	return rt
}

// byID rows carry their argument in the path's one {wildcard} segment;
// on an Owner-class row the id is the vehicle.
func byID[A ~string, R any](name, verbPath string, status int, m func(DeploymentService, context.Context, A) (R, error), class Class) *Route {
	rt := newRoute(name, verbPath, status, m, class)
	open, shut := strings.IndexByte(rt.Path, '{'), strings.IndexByte(rt.Path, '}')
	prefix, param, suffix := rt.Path[:open], rt.Path[open+1:shut], rt.Path[shut+1:]
	// ServeMux wildcards span the whole segment, so a custom verb arrives
	// inside the path value and is cut off here.
	rt.pattern = rt.Verb + " " + rt.Path[:shut+1]
	rt.decode = func(r *http.Request) (any, error) {
		id, ok := strings.CutSuffix(r.PathValue(param), suffix)
		if !ok || id == "" {
			return nil, Errorf(CodeInvalidArgument, "api: %s %s is the only %s on this resource", rt.Verb, rt.Path, rt.Verb)
		}
		return A(id), nil
	}
	rt.request = func(arg any) (string, any) { return prefix + url.PathEscape(string(arg.(A))) + suffix, nil }
	if class == Owner {
		rt.vehicles = func(arg any) vins { return vins{core.VehicleID(arg.(A))} }
	}
	return rt
}

// paged rows are list reads: the argument is a Page in the query string.
func paged[R any](name, verbPath string, m func(DeploymentService, context.Context, Page) (R, error), class Class) *Route {
	rt := newRoute(name, verbPath, http.StatusOK, m, class)
	rt.decode = func(r *http.Request) (any, error) {
		p, err := pageOf(r)
		return p, err
	}
	rt.request = func(arg any) (string, any) { return rt.Path + pageQuery(arg.(Page)), nil }
	return rt
}

// bare rows take no argument.
func bare[R any](name, verbPath string, m func(DeploymentService, context.Context) (R, error), class Class, exempt bool) *Route {
	rt := newRoute(name, verbPath, http.StatusOK,
		func(s DeploymentService, ctx context.Context, _ struct{}) (R, error) { return m(s, ctx) }, class)
	rt.RateExempt = exempt
	rt.decode = func(*http.Request) (any, error) { return struct{}{}, nil }
	rt.request = func(any) (string, any) { return rt.Path, nil }
	return rt
}

// statusQuery is the argument of Status, the one method with two
// parameters; both travel in the query string.
type statusQuery struct {
	Vehicle core.VehicleID
	App     core.AppName
}

func statusRoute(name, verbPath string) *Route {
	rt := newRoute(name, verbPath, http.StatusOK,
		func(s DeploymentService, ctx context.Context, q statusQuery) (OpStatus, error) {
			return s.Status(ctx, q.Vehicle, q.App)
		}, Owner)
	rt.decode = func(r *http.Request) (any, error) {
		q := statusQuery{core.VehicleID(r.URL.Query().Get("vehicle")), core.AppName(r.URL.Query().Get("app"))}
		if q.Vehicle == "" || q.App == "" {
			return nil, Errorf(CodeInvalidArgument, "api: vehicle and app query parameters required")
		}
		return q, nil
	}
	rt.request = func(arg any) (string, any) {
		q := arg.(statusQuery)
		return rt.Path + "?" + url.Values{"vehicle": {string(q.Vehicle)}, "app": {string(q.App)}}.Encode(), nil
	}
	rt.vehicles = func(arg any) vins { return vins{arg.(statusQuery).Vehicle} }
	return rt
}
